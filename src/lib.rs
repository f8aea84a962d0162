//! # cmcc — the Connection Machine Convolution Compiler, reproduced
//!
//! A Rust reproduction of *"Fortran at Ten Gigaflops: The Connection
//! Machine Convolution Compiler"* (Bromley, Heller, McNerney & Steele,
//! PLDI 1991): a compiler that turns Fortran 90 array assignment
//! statements of the sum-of-products `CSHIFT` form into chained
//! multiply-add kernels, executed here on a cycle-level simulator of the
//! CM-2's floating-point node array.
//!
//! The workspace splits the way the paper splits the system:
//!
//! | crate | paper role |
//! |---|---|
//! | [`front`] | Fortran 90 subset + `defstencil` front ends |
//! | [`core`] | the compiler module: recognition, multistencils, ring-buffer register allocation, kernel scheduling |
//! | [`cm2`] | the machine: WTL3164 pipeline, sequencer, node grid, communication primitives |
//! | [`runtime`] | the run-time library: distributed arrays, halo exchange, strip mining |
//! | [`baseline`] | comparators: generic slicewise CM Fortran and the 1989 hand-coded library |
//!
//! # Quickstart
//!
//! ```
//! use cmcc::Session;
//!
//! let mut session = Session::tiny()?;
//! let blur = session.compile(
//!     "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)",
//! )?;
//! let x = session.array(8, 8)?;
//! let r = session.array(8, 8)?;
//! x.fill_with(&mut session.machine_mut(), |row, _| row as f32);
//! let measurement = session.run(&blur, &r, &x, &[])?;
//! assert_eq!(r.get(&session.machine(), 4, 0), 4.0);
//! println!("{:.1} Mflops", measurement.mflops(session.config()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Concurrency
//!
//! A [`Session`] is a cheap clonable handle over shared state: the
//! machine (behind a read-write lock), the compiler, and a plan cache of
//! immutable [`CompiledPlan`] artifacts behind one lock, which also keeps
//! retired instances' lane mirrors for reuse. Clone the session once per
//! thread and run concurrently — the first tenant to request a given
//! (statement, shape, options) builds its plan exactly once (a per-entry
//! build lock serializes racing tenants onto the same artifact, and no
//! build holds the cache lock), and every handle keeps its own
//! mutable [`runtime::PlanInstance`] state, so tenants never observe
//! each other's bindings.
//!
//! Executes are admitted through a **region-lease table**: each run
//! leases the node-memory ranges it touches, and runs whose leases
//! don't conflict (disjoint, or read-read overlap) proceed
//! concurrently. A lane-mapped run holds the *shared* machine lock only
//! while it reads node memory, computes on its private lane mirror
//! with no machine lock at all, and commits its result from the mirror
//! straight into node memory under a brief exclusive lock. A conflicting
//! run waits its turn in fair FIFO order, is counted, and then runs the
//! same body, bit-identically.
//! See [`Session::lease_stats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cmcc_baseline as baseline;
pub use cmcc_cm2 as cm2;
pub use cmcc_core as core;
pub use cmcc_front as front;
pub use cmcc_obs as obs;
pub use cmcc_runtime as runtime;

pub use cmcc_cm2::{CycleBreakdown, Machine, MachineConfig, Measurement};
pub use cmcc_core::{CompileError, CompiledStencil, Compiler, PaperPattern};
pub use cmcc_runtime::{
    convolve, convolve_multi, convolve_volume, CmArray, CmVolume, CompiledPlan, ExecEngine,
    ExecOptions, ExecutionPlan, LeaseRange, RuntimeError, StencilBinding,
};

use cmcc_cm2::lane::LaneMirror;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use crate::{
        convolve, CmArray, CompiledStencil, Compiler, ExecOptions, Machine, MachineConfig,
        Measurement, PaperPattern, Session,
    };
}

/// A combined error for [`Session`] operations.
#[derive(Debug)]
pub enum SessionError {
    /// Machine construction failed.
    Machine(String),
    /// Compilation failed.
    Compile(CompileError),
    /// A run-time library error.
    Runtime(RuntimeError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Machine(msg) => write!(f, "machine error: {msg}"),
            SessionError::Compile(e) => e.fmt(f),
            SessionError::Runtime(e) => e.fmt(f),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Machine(_) => None,
            SessionError::Compile(e) => Some(e),
            SessionError::Runtime(e) => Some(e),
        }
    }
}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

impl From<RuntimeError> for SessionError {
    fn from(e: RuntimeError) -> Self {
        SessionError::Runtime(e)
    }
}

/// The plan cache key: a statement [`CompiledStencil::fingerprint`], the
/// global array shape, and the execution options. Two calls with equal
/// keys are guaranteed to want the same [`CompiledPlan`] (possibly
/// instantiated over different arrays of that shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    fingerprint: u64,
    rows: usize,
    cols: usize,
    opts: ExecOptions,
}

/// One cache entry's build-once cell. The tenant that publishes an entry
/// locks its fresh slot before the cache lock is released, so that tenant
/// builds the artifact while racing tenants block on the same mutex and
/// wake to a populated slot — the per-key build lock that makes "built
/// exactly once" a structural guarantee rather than a race outcome. A
/// racing tenant that wakes to an empty slot found a failed build.
type PlanSlot = Mutex<Option<Arc<CompiledPlan>>>;

#[derive(Debug)]
struct CacheEntry {
    key: PlanKey,
    slot: Arc<PlanSlot>,
    /// Cache tick of the last lookup: the LRU order.
    last_used: u64,
}

impl CacheEntry {
    /// The built artifact; `None` while a builder holds the slot (an
    /// entry mid-build is by definition the most recently wanted) or
    /// once its build failed.
    fn built(&self) -> Option<Arc<CompiledPlan>> {
        self.slot.try_lock().ok()?.as_ref().cloned()
    }
}

/// Everything the plan cache keeps behind its one lock.
#[derive(Debug, Default)]
struct CacheState {
    entries: Vec<CacheEntry>,
    capacity: usize,
    tick: u64,
    evictions: u64,
    /// Evicted artifacts still referenced by in-flight instances. The
    /// `Arc` keeps the artifact (and its node-memory fields) alive;
    /// sweeps reclaim each one when its last instance drops.
    retired: Vec<Arc<CompiledPlan>>,
    /// Lane mirrors of retired instances, handed to new instances so a
    /// same-shaped tenant allocates nothing; at most
    /// [`MIRROR_POOL_CAPACITY`].
    mirrors: Vec<LaneMirror>,
    /// Mirror takes that found `mirrors` empty.
    mirror_misses: u64,
}

impl CacheState {
    /// Keeps a retired instance's lane mirror for a later instance while
    /// there is room; a mirror that was never shaped holds nothing worth
    /// keeping.
    fn recycle(&mut self, mirror: LaneMirror) {
        if mirror.nodes() > 0 && self.mirrors.len() < MIRROR_POOL_CAPACITY {
            self.mirrors.push(mirror);
        }
    }

    /// The most recently retired lane mirror, or a fresh one counted as a
    /// [`cmcc_obs::Counter::MirrorPoolMisses`]. Its contents are
    /// unspecified: the instance primes it before use.
    fn take_mirror(&mut self) -> LaneMirror {
        self.mirrors.pop().unwrap_or_else(|| {
            self.mirror_misses += 1;
            cmcc_obs::add(cmcc_obs::Counter::MirrorPoolMisses, 1);
            LaneMirror::new()
        })
    }
}

/// The session's plan cache: one LRU list behind one mutex, plus the hit
/// and miss counters, which are atomics because hits and misses are
/// decided under a slot lock.
///
/// Lock order, on every path: lease table → cache → slot → machine. A
/// builder holds its slot across the build, which takes the machine
/// write lock; a slot holder never takes the cache lock; and the cache
/// lock only ever try-locks a slot, so its holder waits on nothing and
/// no build or execute runs under it.
#[derive(Debug, Default)]
struct PlanCache {
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        unpoison(self.state.lock())
    }
}

/// The one poison policy for every lock in this crate: a lock whose
/// holder panicked is taken over in whatever state the panic left.
fn unpoison<G>(acquired: LockResult<G>) -> G {
    acquired.unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters plus occupancy for a session's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Runs served from an already-built shared plan (including tenants
    /// that waited on a racing builder).
    pub hits: u64,
    /// Runs that built (and cached) a fresh plan — one per distinct
    /// artifact, however many tenants raced for it.
    pub misses: u64,
    /// Cached plans evicted: by the LRU bound, by a capacity shrink, or
    /// after their run at capacity zero.
    pub evictions: u64,
    /// The cache's current plan capacity.
    pub capacity: usize,
    /// Shared artifacts currently held beyond the cache itself: cached
    /// plans with at least one live tenant instance, plus evicted plans
    /// kept alive by in-flight instances awaiting their final sweep.
    pub shared_in_flight: usize,
}

/// Default number of distinct (statement, shape, options) plans a session
/// keeps alive.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 8;

/// Retired lane mirrors the plan cache keeps for new instances; takes
/// past that supply are counted as
/// [`cmcc_obs::Counter::MirrorPoolMisses`].
const MIRROR_POOL_CAPACITY: usize = 32;

/// Mutable state of the region-lease table, behind one mutex.
#[derive(Debug, Default)]
struct LeaseState {
    /// Live leases: one entry per in-flight execute, keyed by ticket.
    live: Vec<(u64, Vec<LeaseRange>)>,
    /// Conflicted requests waiting their turn, in arrival order.
    queue: VecDeque<(u64, Vec<LeaseRange>)>,
    next_ticket: u64,
    /// Executes currently holding a lease.
    in_flight: usize,
    /// Highest `in_flight` ever observed (monotone).
    peak: usize,
    /// Portion of `peak` already emitted to
    /// [`cmcc_obs::Counter::ConcurrentExecutesPeak`]; the counter is fed
    /// monotone deltas so its global sum equals the peak itself.
    reported_peak: usize,
    conflicts: u64,
}

/// The region-lease table: admission control for concurrent executes.
///
/// Every execute acquires a lease over the node-memory ranges it will
/// touch ([`ExecutionPlan::lease_ranges`]) before touching the machine
/// lock, and holds it until its results are committed. Disjoint (or
/// read-read overlapping) leases are granted immediately and may run
/// concurrently; a conflicting request queues FIFO behind every earlier
/// request it conflicts with. Lock order: lease table → machine lock,
/// never the reverse.
#[derive(Debug, Default)]
struct LeaseTable {
    state: Mutex<LeaseState>,
    granted: Condvar,
    /// Executes that ran the region body.
    region_grants: AtomicU64,
}

/// A live region lease. Dropping it — normally or during a panic
/// unwind — releases the ranges and wakes every queued waiter.
#[derive(Debug)]
struct LeaseGuard<'a> {
    table: &'a LeaseTable,
    ticket: u64,
    ranges: Vec<LeaseRange>,
}

fn ranges_conflict(a: &[LeaseRange], b: &[LeaseRange]) -> bool {
    a.iter().any(|ra| b.iter().any(|rb| ra.conflicts(rb)))
}

impl LeaseTable {
    /// Acquires a lease over `ranges`, blocking while any live or
    /// earlier-queued lease conflicts. Returns the guard plus whether
    /// the request ever conflicted. Once granted, no live lease
    /// conflicts with this one, so a conflicted execute is as safe as
    /// any other: it runs the same body, and the caller only counts it.
    fn acquire(&self, ranges: Vec<LeaseRange>) -> (LeaseGuard<'_>, bool) {
        // Flight-recorder lease lifecycle: the `lease_acquire` slice runs
        // from request to grant (its duration is the time-to-grant, and
        // its end event's arg says whether the request conflicted); the
        // `lease_held` slice runs from grant to release.
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::Begin,
            cmcc_obs::trace::TraceOp::LeaseAcquire,
            0,
        );
        let mut st = unpoison(self.state.lock());
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let blocked = |st: &LeaseState| {
            st.live.iter().any(|(_, lr)| ranges_conflict(lr, &ranges))
                || st
                    .queue
                    .iter()
                    .take_while(|(t, _)| *t != ticket)
                    .any(|(_, qr)| ranges_conflict(qr, &ranges))
        };
        let conflicted = blocked(&st);
        if conflicted {
            st.conflicts += 1;
            st.queue.push_back((ticket, ranges.clone()));
            while blocked(&st) {
                st = unpoison(self.granted.wait(st));
            }
            let pos = st
                .queue
                .iter()
                .position(|(t, _)| *t == ticket)
                .expect("queued lease ticket vanished");
            st.queue.remove(pos);
        }
        st.live.push((ticket, ranges.clone()));
        st.in_flight += 1;
        if st.in_flight > st.peak {
            st.peak = st.in_flight;
            let delta = (st.peak - st.reported_peak) as u64;
            st.reported_peak = st.peak;
            cmcc_obs::add(cmcc_obs::Counter::ConcurrentExecutesPeak, delta);
        }
        drop(st);
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::End,
            cmcc_obs::trace::TraceOp::LeaseAcquire,
            conflicted as u64,
        );
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::Begin,
            cmcc_obs::trace::TraceOp::LeaseHeld,
            ticket,
        );
        (
            LeaseGuard {
                table: self,
                ticket,
                ranges,
            },
            conflicted,
        )
    }

    fn stats(&self) -> LeaseStats {
        let st = unpoison(self.state.lock());
        LeaseStats {
            region_grants: self.region_grants.load(Ordering::Relaxed),
            conflicts: st.conflicts,
            peak_concurrent: st.peak,
            live: st.live.len(),
            queued: st.queue.len(),
        }
    }
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        let mut st = unpoison(self.table.state.lock());
        st.live.retain(|(t, _)| *t != self.ticket);
        st.in_flight -= 1;
        drop(st);
        self.table.granted.notify_all();
        cmcc_obs::trace::record(
            cmcc_obs::trace::TraceKind::End,
            cmcc_obs::trace::TraceOp::LeaseHeld,
            self.ticket,
        );
    }
}

/// A snapshot of the session's region-lease table (shared across handle
/// clones): grants, conflicts, the concurrency high-water mark, and the
/// instantaneous live/queued population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeaseStats {
    /// Executes that ran the region body: a read phase under the shared
    /// machine lock, lock-free compute on the lane mirror, and a commit
    /// under the write lock. Conflicted executes count here too, once
    /// granted.
    pub region_grants: u64,
    /// Requests that conflicted with a live or earlier-queued lease and
    /// waited their FIFO turn before running.
    pub conflicts: u64,
    /// Highest number of simultaneously leased executes ever observed.
    pub peak_concurrent: usize,
    /// Leases live right now.
    pub live: usize,
    /// Requests queued on a conflict right now.
    pub queued: usize,
}

/// The state every [`Session`] handle shares: the machine behind a
/// read-write lock, the compiler, the plan cache (which also keeps the
/// lane mirrors of retired instances), and the region-lease table that
/// admits executes.
#[derive(Debug)]
struct SessionShared {
    machine: RwLock<Machine>,
    compiler: Compiler,
    config: MachineConfig,
    cache: PlanCache,
    leases: LeaseTable,
}

/// A shared read guard over the session's [`Machine`]. Dereferences to
/// [`Machine`]; any number of handles may read concurrently.
#[derive(Debug)]
pub struct MachineGuard<'a> {
    inner: RwLockReadGuard<'a, Machine>,
}

impl Deref for MachineGuard<'_> {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        &self.inner
    }
}

/// An exclusive write guard over the session's [`Machine`].
/// Dereferences mutably to [`Machine`].
#[derive(Debug)]
pub struct MachineGuardMut<'a> {
    inner: RwLockWriteGuard<'a, Machine>,
}

impl Deref for MachineGuardMut<'_> {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        &self.inner
    }
}

impl DerefMut for MachineGuardMut<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.inner
    }
}

/// Takes a machine lock through `take`, recording the wait from request
/// to grant as a `machine_lock` trace slice whose end argument is 1 for
/// the write lock and 0 for the read lock.
fn traced_lock<T>(write: bool, take: impl FnOnce() -> T) -> T {
    use cmcc_obs::trace::{record, TraceKind, TraceOp};
    record(TraceKind::Begin, TraceOp::MachineLock, 0);
    let guard = take();
    record(TraceKind::End, TraceOp::MachineLock, write as u64);
    guard
}

impl SessionShared {
    fn machine_read(&self) -> MachineGuard<'_> {
        traced_lock(false, || MachineGuard {
            inner: unpoison(self.machine.read()),
        })
    }

    fn machine_write(&self) -> MachineGuardMut<'_> {
        traced_lock(true, || MachineGuardMut {
            inner: unpoison(self.machine.write()),
        })
    }

    /// Commits `plan`'s region execute under a brief write lock: the
    /// plan transposes its result from the lane mirror straight into
    /// node memory ([`ExecutionPlan::commit`]). The execute dropped its
    /// read lock after the read phase, so only the lease keeps other
    /// writers off these words: the range the commit writes must lie
    /// inside one of the lease's writable ranges. That is checked in
    /// every build, before node memory (or the lock) is touched.
    fn commit(&self, plan: &mut ExecutionPlan, lease: &[LeaseRange]) -> Measurement {
        let writes = plan
            .uncommitted()
            .expect("a region execute awaits its commit");
        assert!(
            lease
                .iter()
                .any(|r| r.writable && r.start <= writes.start && writes.end <= r.end),
            "commit escapes the lease's writable ranges"
        );
        plan.commit(&mut self.machine_write())
    }

    /// The cache-aware lookup: returns the shared artifact for `key`,
    /// building it exactly once across all handles and threads. The
    /// build takes the machine write lock without a lease: it only
    /// touches freshly allocated fields, and the write lock itself
    /// excludes every concurrent reader. [`PlanCache`] states the lock
    /// order.
    fn lookup_or_build(
        &self,
        binding: &StencilBinding<'_>,
        key: PlanKey,
        opts: &ExecOptions,
    ) -> Result<Arc<CompiledPlan>, SessionError> {
        loop {
            let mut cache = self.cache.lock();
            cache.tick += 1;
            let tick = cache.tick;
            let found = cache.entries.iter_mut().find(|e| e.key == key).map(|e| {
                e.last_used = tick;
                Arc::clone(&e.slot)
            });
            let created = found.is_none();
            let slot = found.unwrap_or_else(|| {
                let slot = Arc::<PlanSlot>::default();
                cache.entries.push(CacheEntry {
                    key,
                    slot: Arc::clone(&slot),
                    last_used: tick,
                });
                slot
            });
            // The build-once lock. The creator takes its fresh slot before
            // the entry is published; racing tenants block here and wake
            // to the populated slot.
            let mut plan = if created {
                let plan = unpoison(slot.lock());
                drop(cache);
                plan
            } else {
                drop(cache);
                unpoison(slot.lock())
            };
            if let Some(cp) = plan.as_ref() {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                cmcc_obs::add(cmcc_obs::Counter::PlanCacheHits, 1);
                return Ok(Arc::clone(cp));
            }
            if !created {
                // Its builder failed: drop the dead entry (the builder does
                // too) and look the key up afresh.
                drop(plan);
                self.unpublish(&slot);
                continue;
            }
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            cmcc_obs::add(cmcc_obs::Counter::PlanCacheMisses, 1);
            let built = CompiledPlan::build(&mut self.machine_write(), binding, opts);
            return match built {
                Ok(cp) => {
                    let cp = Arc::new(cp);
                    *plan = Some(Arc::clone(&cp));
                    Ok(cp)
                }
                Err(e) => {
                    // Unpublish the empty entry so the next lookup builds
                    // afresh instead of adopting a dead slot.
                    drop(plan);
                    self.unpublish(&slot);
                    Err(e.into())
                }
            };
        }
    }

    /// Removes the entry that owns `slot`, if it is still cached.
    fn unpublish(&self, slot: &Arc<PlanSlot>) {
        self.cache
            .lock()
            .entries
            .retain(|e| !Arc::ptr_eq(&e.slot, slot));
    }

    /// Frees every retired artifact whose last instance has dropped. The
    /// cache lock is released before the machine lock is taken.
    fn sweep_retired(&self) {
        let free: Vec<CompiledPlan> = self
            .cache
            .lock()
            .retired
            .extract_if(.., |cp| Arc::strong_count(cp) == 1)
            .filter_map(|cp| Arc::try_unwrap(cp).ok())
            .collect();
        if !free.is_empty() {
            let mut machine = self.machine_write();
            for cp in free {
                cp.release(&mut machine);
            }
        }
    }
}

/// One handle-local tenant instance over a shared artifact.
#[derive(Debug)]
struct LocalPlan {
    key: PlanKey,
    plan: ExecutionPlan,
    last_used: u64,
}

/// A machine plus a compiler targeting it: the convenient front door.
///
/// Every `run*` call is served through a **plan cache**: the first call
/// for a given (statement fingerprint, array shape, options) builds a
/// shared [`CompiledPlan`] — halo buffers, exchange programs, the
/// strip-mine schedule and the row program — and later calls replay it
/// through a handle-local [`runtime::PlanInstance`], rebound to whichever
/// arrays are passed. Results and [`Measurement`]s are bit-identical to
/// uncached execution. The cache is bounded (least-recently-used plans
/// are evicted and their node memory freed once their last in-flight
/// instance retires) and is scoped to the session's shared state, so a
/// different machine configuration — a session created fresh — can never
/// observe a stale plan. A shape or options change simply keys a new
/// plan.
///
/// `Session` is a **cheap clonable handle**: clones share the machine,
/// compiler, plan cache (with its statistics and retired lane mirrors),
/// and lease table, while each clone keeps its own plan instances and per-handle report. Clone one
/// session per thread for concurrent multi-tenant execution; a plan is
/// built exactly once no matter how many tenants race for it.
///
/// See the crate-level example. For full control (execution options,
/// alternative front ends, baselines) use the constituent crates
/// directly.
#[derive(Debug)]
pub struct Session {
    shared: Arc<SessionShared>,
    /// This handle's tenant instances over shared artifacts.
    plans: Vec<LocalPlan>,
    local_tick: u64,
    /// Telemetry delta of the most recent `run*` call (empty when
    /// profiling is disabled — see [`cmcc_obs::set_enabled`]).
    last_report: cmcc_obs::RunReport,
    /// Cache key of the most recent `run*` call, for [`Session::last_plan`].
    last_key: Option<PlanKey>,
}

impl Clone for Session {
    /// Clones the handle: the machine, compiler, plan cache, and lease
    /// table are shared; plan instances and per-handle state start
    /// empty.
    fn clone(&self) -> Self {
        Session {
            shared: Arc::clone(&self.shared),
            plans: Vec::new(),
            local_tick: 0,
            last_report: cmcc_obs::RunReport::default(),
            last_key: None,
        }
    }
}

impl Drop for Session {
    /// Retires this handle's instances; the plan cache keeps their lane
    /// mirrors for future tenants.
    fn drop(&mut self) {
        self.retire_instances(|_| true);
    }
}

impl Session {
    /// A session on the given machine configuration.
    ///
    /// # Errors
    ///
    /// [`SessionError::Machine`] if the configuration is invalid.
    pub fn with_config(config: MachineConfig) -> Result<Self, SessionError> {
        let machine = Machine::new(config.clone()).map_err(SessionError::Machine)?;
        Ok(Session {
            shared: Arc::new(SessionShared {
                machine: RwLock::new(machine),
                compiler: Compiler::new(config.clone()),
                config,
                cache: PlanCache {
                    state: Mutex::new(CacheState {
                        capacity: DEFAULT_PLAN_CACHE_CAPACITY,
                        ..CacheState::default()
                    }),
                    ..PlanCache::default()
                },
                leases: LeaseTable::default(),
            }),
            plans: Vec::new(),
            local_tick: 0,
            last_report: cmcc_obs::RunReport::default(),
            last_key: None,
        })
    }

    /// The paper's 16-node measurement board (4×4 nodes).
    ///
    /// # Errors
    ///
    /// Never in practice; propagates machine construction.
    pub fn test_board() -> Result<Self, SessionError> {
        Self::with_config(MachineConfig::test_board_16())
    }

    /// A full 2,048-node CM-2.
    ///
    /// # Errors
    ///
    /// Never in practice; propagates machine construction.
    pub fn full_machine() -> Result<Self, SessionError> {
        Self::with_config(MachineConfig::full_machine_2048())
    }

    /// A tiny 2×2-node machine for tests and doc examples.
    ///
    /// # Errors
    ///
    /// Never in practice; propagates machine construction.
    pub fn tiny() -> Result<Self, SessionError> {
        Self::with_config(MachineConfig::tiny_4())
    }

    /// The machine, behind a shared read guard. Hold it across several
    /// reads in one expression (`r.get(&session.machine(), 1, 1)`); it
    /// unlocks when the guard drops. Taking [`Session::machine_mut`] on
    /// the *same handle* while a guard from this method is live would
    /// deadlock — the `&mut self` receiver there makes that a
    /// compile-time error instead. The wait for the lock is traced as a
    /// `machine_lock` slice.
    pub fn machine(&self) -> MachineGuard<'_> {
        self.shared.machine_read()
    }

    /// The machine, behind an exclusive write guard. The wait for the
    /// lock is traced as a `machine_lock` slice. Host writes through
    /// this guard bypass the lease table: one can land between an
    /// in-flight execute's read phase and its commit, just as it could
    /// land between an execute and its commit.
    pub fn machine_mut(&mut self) -> MachineGuardMut<'_> {
        self.shared.machine_write()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// The compiler.
    pub fn compiler(&self) -> &Compiler {
        &self.shared.compiler
    }

    /// Compiles a Fortran array assignment statement.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile(&self, statement: &str) -> Result<CompiledStencil, SessionError> {
        Ok(self.shared.compiler.compile_assignment(statement)?)
    }

    /// Compiles a statement under the multi-source extension (several
    /// shifted arrays fused into one kernel — the paper's §9 future
    /// work).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile_extended(&self, statement: &str) -> Result<CompiledStencil, SessionError> {
        Ok(self
            .shared
            .compiler
            .compile_assignment_extended(statement)?)
    }

    /// Allocates a distributed array.
    ///
    /// # Errors
    ///
    /// Shape or memory errors from the run-time library.
    pub fn array(&mut self, rows: usize, cols: usize) -> Result<CmArray, SessionError> {
        Ok(CmArray::new(&mut self.machine_mut(), rows, cols)?)
    }

    /// Runs a compiled stencil with default options (cycle-accurate).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        source: &CmArray,
        coeffs: &[&CmArray],
    ) -> Result<Measurement, SessionError> {
        self.run_with_multi(compiled, result, &[source], coeffs, &ExecOptions::default())
    }

    /// Runs a compiled multi-source stencil with default options.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run_multi(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<Measurement, SessionError> {
        self.run_with_multi(compiled, result, sources, coeffs, &ExecOptions::default())
    }

    /// Runs a compiled multi-source stencil with explicit options.
    ///
    /// This is the cache-aware core every other `run*` method funnels
    /// into: the shared artifact is looked up (or built, exactly once
    /// across all handles) in the plan cache, and this handle's
    /// instance over it is rebound to the given arrays (no allocation, no
    /// schedule rebuild on the steady path). The execute then leases the
    /// node-memory ranges it touches. A lane-mapped instance reads node
    /// memory under the shared machine lock, computes on its lane mirror
    /// with no machine lock held, and commits under a brief write lock
    /// before releasing the lease. The scalar engine writes node memory
    /// as it goes, so it runs under the write lock.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run_with_multi(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
        opts: &ExecOptions,
    ) -> Result<Measurement, SessionError> {
        // Bind first: argument validation must not depend on the cache.
        let binding = StencilBinding::new(compiled, result, sources, coeffs)?;
        let key = PlanKey {
            fingerprint: compiled.fingerprint(),
            rows: result.rows(),
            cols: result.cols(),
            opts: *opts,
        };
        let shared = Arc::clone(&self.shared);
        let before = cmcc_obs::snapshot();
        self.last_key = Some(key);

        let cp = shared.lookup_or_build(&binding, key, opts)?;
        let run = self.run_instance(cp, key, &binding, result, sources, coeffs);
        if run.is_ok() {
            self.last_report = cmcc_obs::snapshot().delta(&before);
        }
        // A failed run settles too: at capacity zero its plan goes either
        // way.
        self.settle(Some(key));
        run
    }

    /// Runs this handle's instance over `cp` on the bound arrays. The
    /// instance is reused while it still tracks `cp` and replaced when the
    /// cache entry was evicted and rebuilt behind our back. The execute
    /// leases the node-memory ranges it touches. `cp` drops on return, so
    /// the caller's eviction pass can free an artifact this run evicts.
    fn run_instance(
        &mut self,
        cp: Arc<CompiledPlan>,
        key: PlanKey,
        binding: &StencilBinding<'_>,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<Measurement, SessionError> {
        let shared = Arc::clone(&self.shared);
        self.local_tick += 1;
        let existing = self.plans.iter().position(|e| e.key == key);
        let idx = match existing {
            Some(i) if Arc::ptr_eq(self.plans[i].plan.shared(), &cp) => i,
            stale => {
                if stale.is_some() {
                    self.retire_instances(|e| e.key == key);
                }
                let mut plan = ExecutionPlan::from_shared(&cp, binding)?;
                plan.install_mirror(shared.cache.lock().take_mirror());
                self.plans.push(LocalPlan {
                    key,
                    plan,
                    last_used: 0,
                });
                self.plans.len() - 1
            }
        };
        self.plans[idx].last_used = self.local_tick;
        self.plans[idx].plan.rebind(result, sources, coeffs)?;

        // Admission: lease the ranges this execute will touch. The lease
        // is held from before the read phase until after the commit, so
        // no conflicting execute runs in between. A conflicted request
        // has waited its FIFO turn; once granted it is as safe as any.
        let plan = &mut self.plans[idx].plan;
        let (lease, conflicted) = shared.leases.acquire(plan.lease_ranges());
        if conflicted {
            cmcc_obs::add(cmcc_obs::Counter::LeaseConflicts, 1);
        }
        if plan.lane_mapped() {
            // The region body: read node memory under the shared lock
            // (the guard drops inside `execute_region`), compute on the
            // mirror lock-free, then commit under the write lock.
            shared.leases.region_grants.fetch_add(1, Ordering::Relaxed);
            cmcc_obs::add(cmcc_obs::Counter::RegionLeases, 1);
            plan.execute_region(shared.machine_read());
            Ok(shared.commit(plan, &lease.ranges))
        } else {
            // The scalar engine writes node memory in place.
            Ok(plan.execute(&mut shared.machine_write())?)
        }
    }

    /// Brings the cache back within its capacity: evicts least recently
    /// used entries, retires this handle's instances over the evicted
    /// plans and its least recently used instances beyond the capacity,
    /// and frees every retired artifact no instance holds any more.
    ///
    /// Entries mid-build are skipped, and so is `keep`, the entry the
    /// calling run just executed, unless the capacity is zero: its tick
    /// dates from the run's lookup, so another tenant that looked up newer
    /// entries meanwhile would otherwise make the run evict the plan it
    /// just ran and drop its own instance with it. At capacity zero every
    /// run's entry is evicted after the run.
    fn settle(&mut self, keep: Option<PlanKey>) {
        let mut evicted = Vec::new();
        let capacity = {
            let mut cache = self.shared.cache.lock();
            let keep = keep.filter(|_| cache.capacity > 0);
            while cache.entries.len() > cache.capacity {
                let victim = cache
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| Some(e.key) != keep)
                    .filter_map(|(i, e)| Some((e.last_used, i, e.built()?)))
                    .min_by_key(|&(tick, ..)| tick);
                let Some((_, i, cp)) = victim else {
                    break;
                };
                evicted.push(cache.entries.swap_remove(i).key);
                cache.retired.push(cp);
                cache.evictions += 1;
                cmcc_obs::add(cmcc_obs::Counter::PlanCacheEvictions, 1);
            }
            cache.capacity
        };
        // Our own instances over evicted artifacts are dead weight now:
        // retire them so the sweep can free each artifact as soon as every
        // other handle's instance has gone too.
        if !evicted.is_empty() {
            self.retire_instances(|e| evicted.contains(&e.key));
        }
        while self.plans.len() > capacity {
            let lru = self.plans.iter().map(|e| e.last_used).min();
            self.retire_instances(|e| Some(e.last_used) == lru);
        }
        self.shared.sweep_retired();
    }

    /// Drops this handle's instances that `retire` picks; the plan cache
    /// keeps their lane mirrors for later instances.
    fn retire_instances(&mut self, mut retire: impl FnMut(&LocalPlan) -> bool) {
        let mut cache = self.shared.cache.lock();
        for mut old in self.plans.extract_if(.., |e| retire(e)) {
            cache.recycle(old.plan.take_mirror());
        }
    }

    /// Plan-cache hit/miss/eviction counters, capacity, and the in-flight
    /// shared-plan count. Shared across handle clones (one cache, one set
    /// of numbers).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = self.shared.cache.lock();
        let instantiated = cache
            .entries
            .iter()
            .filter(|e| {
                matches!(e.slot.try_lock().as_deref(), Ok(Some(cp)) if Arc::strong_count(cp) > 1)
            })
            .count();
        PlanCacheStats {
            hits: self.shared.cache.hits.load(Ordering::Relaxed),
            misses: self.shared.cache.misses.load(Ordering::Relaxed),
            evictions: cache.evictions,
            capacity: cache.capacity,
            shared_in_flight: instantiated + cache.retired.len(),
        }
    }

    /// A snapshot of the region-lease table shared by every clone of
    /// this session: region grants, conflicts, the concurrency
    /// high-water mark, and the live/queued population (both zero
    /// whenever no execute is in flight).
    pub fn lease_stats(&self) -> LeaseStats {
        self.shared.leases.stats()
    }

    /// Mirror takes this session served with a fresh allocation because
    /// the plan cache held no retired mirror — the lifetime total behind
    /// [`cmcc_obs::Counter::MirrorPoolMisses`].
    pub fn mirror_pool_misses(&self) -> u64 {
        self.shared.cache.lock().mirror_misses
    }

    /// Telemetry recorded by the most recent `run*` call on *this
    /// handle*: the global [`cmcc_obs`] counter and span deltas
    /// bracketing that call. Empty when profiling was disabled (the
    /// counters never moved) or before the first run. Under concurrent
    /// tenants the bracket can include other threads' work — per-tenant
    /// attribution uses [`cmcc_obs::thread_snapshot`] instead.
    pub fn last_report(&self) -> cmcc_obs::RunReport {
        self.last_report
    }

    /// The plan instance the most recent `run*` call on this handle
    /// used, when it is still held — for inspecting analytic plan
    /// properties like [`ExecutionPlan::steady_state_copy_words`].
    pub fn last_plan(&self) -> Option<&ExecutionPlan> {
        let key = self.last_key?;
        self.plans.iter().find(|e| e.key == key).map(|e| &e.plan)
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.shared.cache.lock().entries.len()
    }

    /// Changes how many plans the cache keeps globally, evicting
    /// immediately if the new bound is smaller. At capacity zero each
    /// run's plan is evicted (and its node memory freed) right after the
    /// run. Shared across handle clones.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.shared.cache.lock().capacity = capacity;
        self.settle(None);
    }

    /// Drops every cached plan and frees its node memory (for artifacts
    /// other handles still execute, the memory follows when their last
    /// instance retires). Call after anything a plan could have captured
    /// changes out from under the cache — there is nothing of that kind
    /// today (machine configuration is fixed per session, and shape or
    /// option changes key new plans), but explicit invalidation keeps
    /// the escape hatch cheap.
    pub fn clear_plan_cache(&mut self) {
        self.retire_instances(|_| true);
        self.last_key = None;
        let drained = std::mem::take(&mut self.shared.cache.lock().entries);
        // Outside the cache lock: a slot still being built is waited for.
        let built: Vec<Arc<CompiledPlan>> = drained
            .into_iter()
            .filter_map(|e| unpoison(e.slot.lock()).take())
            .collect();
        self.shared.cache.lock().retired.extend(built);
        self.shared.sweep_retired();
    }

    /// Runs with explicit options.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`].
    pub fn run_with(
        &mut self,
        compiled: &CompiledStencil,
        result: &CmArray,
        source: &CmArray,
        coeffs: &[&CmArray],
        opts: &ExecOptions,
    ) -> Result<Measurement, SessionError> {
        self.run_with_multi(compiled, result, &[source], coeffs, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_round_trip() {
        let mut s = Session::tiny().unwrap();
        let c = s.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let x = s.array(4, 4).unwrap();
        let r = s.array(4, 4).unwrap();
        x.fill(&mut s.machine_mut(), 2.0);
        let m = s.run(&c, &r, &x, &[]).unwrap();
        assert_eq!(r.get(&s.machine(), 1, 1), 2.0);
        assert!(m.cycles.total() > 0);
    }

    /// The full machine's 32 GiB of node memory comes in 1 GiB slabs:
    /// one buffer that size fails to allocate on a host with less memory.
    #[test]
    fn full_machine_session_builds() {
        let s = Session::full_machine().unwrap();
        assert_eq!(s.machine().node_count(), 2048);
    }

    #[test]
    fn compile_errors_surface() {
        let s = Session::tiny().unwrap();
        let err = s.compile("R = X - Y").unwrap_err();
        assert!(err.to_string().contains("subtraction") || err.to_string().contains("stencil"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn cloned_handles_share_cache_and_machine() {
        let mut a = Session::tiny().unwrap();
        let c = a.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let x = a.array(4, 4).unwrap();
        let r = a.array(4, 4).unwrap();
        x.fill(&mut a.machine_mut(), 3.0);
        a.run(&c, &r, &x, &[]).unwrap();
        assert_eq!(a.plan_cache_stats().misses, 1);

        // The clone sees the artifact the original built: no new build.
        let mut b = a.clone();
        b.run(&c, &r, &x, &[]).unwrap();
        let stats = b.plan_cache_stats();
        assert_eq!(stats.misses, 1, "clone rebuilt a cached plan");
        assert_eq!(stats.hits, 1);
        assert_eq!(r.get(&b.machine(), 1, 1), 3.0);
        assert!(stats.shared_in_flight >= 1);
        assert_eq!(a.cached_plans(), 1);
    }

    #[test]
    fn a_run_never_evicts_the_plan_it_just_ran() {
        let mut a = Session::tiny().unwrap();
        let mut b = a.clone();
        let x = a.array(4, 4).unwrap();
        let r = a.array(4, 4).unwrap();
        let first = a.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let second = b.compile("R = 0.25 * X + 0.75 * CSHIFT(X, 1, 1)").unwrap();
        a.run(&first, &r, &x, &[]).unwrap();
        // Another tenant looks up a newer entry while `a`'s run is still
        // in flight; `a`'s eviction pass then finds the cache one over
        // capacity, with `a`'s entry the oldest.
        b.run(&second, &r, &x, &[]).unwrap();
        a.shared.cache.lock().capacity = 1;
        let key = a.last_key.unwrap();
        a.settle(Some(key));
        assert!(
            a.last_plan().is_some(),
            "the run evicted the plan it just ran"
        );
        assert_eq!(a.cached_plans(), 1);
        assert_eq!(a.plan_cache_stats().evictions, 1);
    }

    #[test]
    fn retired_mirrors_are_bounded_shaped_and_reused_without_allocating() {
        cmcc_obs::set_enabled(true);
        let mut s = Session::tiny().unwrap();
        let c = s.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let x = s.array(4, 4).unwrap();
        let r = s.array(4, 4).unwrap();
        let (small_x, small_r) = (s.array(2, 2).unwrap(), s.array(2, 2).unwrap());
        let lane = ExecOptions::fast()
            .with_engine(ExecEngine::Lockstep)
            .with_threads(1);
        let kept = || s.shared.cache.lock().mirrors.len();
        let tenant_on = |r: &CmArray, x: &CmArray, opts: &ExecOptions| {
            let mut t = s.clone();
            t.run_with(&c, r, x, &[], opts).unwrap();
            t
        };
        let tenant = |opts: &ExecOptions| tenant_on(&r, &x, opts);

        // The scalar engine never shapes its mirror: retiring it keeps
        // nothing.
        drop(tenant(&ExecOptions::default()));
        assert_eq!(kept(), 0, "an unshaped mirror was kept");
        assert_eq!(s.mirror_pool_misses(), 1);

        // Retired shaped mirrors are kept up to the bound.
        let tenants: Vec<Session> = (0..MIRROR_POOL_CAPACITY + 2)
            .map(|_| tenant(&lane))
            .collect();
        drop(tenants);
        assert_eq!(
            kept(),
            MIRROR_POOL_CAPACITY,
            "the kept mirrors are unbounded"
        );
        let misses = s.mirror_pool_misses();
        assert_eq!(misses, MIRROR_POOL_CAPACITY as u64 + 3);

        // A same-shaped tenant takes one and allocates nothing.
        let before = cmcc_obs::thread_snapshot();
        let reused = tenant(&lane);
        let delta = cmcc_obs::thread_snapshot().delta(&before);
        assert_eq!(delta.get(cmcc_obs::Counter::MirrorAllocations), 0);
        assert_eq!(s.mirror_pool_misses(), misses, "the take missed");
        assert_eq!(kept(), MIRROR_POOL_CAPACITY - 1);
        drop(reused);
        assert_eq!(kept(), MIRROR_POOL_CAPACITY);

        // A smaller-shaped tenant takes a larger retired mirror and
        // resizes it in place: no allocation either.
        let before = cmcc_obs::thread_snapshot();
        let smaller = tenant_on(&small_r, &small_x, &lane);
        let delta = cmcc_obs::thread_snapshot().delta(&before);
        assert_eq!(delta.get(cmcc_obs::Counter::MirrorAllocations), 0);
        assert_eq!(s.mirror_pool_misses(), misses, "the take missed");
        drop(smaller);
    }

    #[test]
    fn a_commit_outside_the_lease_panics_with_node_memory_untouched() {
        let mut s = Session::tiny().unwrap();
        let c = s.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
        let x = s.array(4, 4).unwrap();
        let r = s.array(4, 4).unwrap();
        let other = s.array(4, 4).unwrap();
        x.fill(&mut s.machine_mut(), 2.0);
        r.fill(&mut s.machine_mut(), -1.0);
        other.fill(&mut s.machine_mut(), -1.0);
        let opts = ExecOptions::fast()
            .with_engine(ExecEngine::Lockstep)
            .with_threads(1);
        let binding = StencilBinding::new(&c, &r, &[&x], &[]).unwrap();
        let mut plan = ExecutionPlan::build(&mut s.machine_mut(), &binding, &opts).unwrap();
        assert!(plan.lane_mapped());
        plan.execute_region(s.machine());
        let own = plan.lease_ranges();
        // Rebound to `other`, the plan leases other words than the ones
        // its pending commit writes for `r`: they lie outside every
        // writable range.
        plan.rebind(&other, &[&x], &[]).unwrap();
        let shifted = plan.lease_ranges();

        let shared = Arc::clone(&s.shared);
        let escaped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.commit(&mut plan, &shifted)
        }));
        assert!(escaped.is_err(), "a commit outside its lease wrote");
        let untouched = |a: &CmArray| a.gather(&s.machine()).iter().all(|&v| v == -1.0);
        assert!(
            untouched(&r) && untouched(&other),
            "the refused commit touched node memory"
        );
        shared.commit(&mut plan, &own);
        assert!(r.gather(&s.machine()).iter().all(|&v| v == 2.0));
        plan.release(&mut s.machine_mut());
    }

    fn rw(start: usize, end: usize) -> LeaseRange {
        LeaseRange {
            start,
            end,
            writable: true,
        }
    }

    fn ro(start: usize, end: usize) -> LeaseRange {
        LeaseRange {
            start,
            end,
            writable: false,
        }
    }

    #[test]
    fn lease_table_grants_disjoint_and_read_read_overlap_immediately() {
        let table = LeaseTable::default();
        let (a, ca) = table.acquire(vec![ro(0, 100)]);
        let (b, cb) = table.acquire(vec![ro(50, 150)]); // read-read overlap
        let (c, cc) = table.acquire(vec![rw(150, 250)]); // end-exclusive: adjacent writer
        assert!(!ca && !cb && !cc, "no request may be marked conflicted");
        let stats = table.stats();
        assert_eq!(stats.live, 3);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(stats.peak_concurrent, 3);
        drop(a);
        drop(b);
        drop(c);
        let stats = table.stats();
        assert_eq!(stats.live, 0, "released leases must leave the table");
        assert_eq!(stats.peak_concurrent, 3, "the high-water mark is monotone");
    }

    #[test]
    fn lease_conflict_blocks_fifo_but_disjoint_requests_barge_past() {
        let table = LeaseTable::default();
        std::thread::scope(|scope| {
            let (a, ca) = table.acquire(vec![rw(0, 100)]);
            assert!(!ca);
            let waiter = scope.spawn(|| {
                // Write-read overlap with the live lease: queued FIFO.
                let (g, conflicted) = table.acquire(vec![ro(50, 150)]);
                assert!(conflicted, "overlapping request must report the conflict");
                drop(g);
            });
            while table.stats().queued == 0 {
                std::thread::yield_now();
            }
            // A request disjoint from both the live lease and the queued
            // waiter is granted immediately — FIFO fairness never stalls
            // unrelated executes.
            let (d, dc) = table.acquire(vec![rw(300, 400)]);
            assert!(
                !dc,
                "disjoint request must not inherit the queue's conflict"
            );
            drop(d);
            assert_eq!(
                table.stats().queued,
                1,
                "the waiter stays queued until release"
            );
            drop(a);
            waiter.join().expect("waiter panicked");
        });
        let stats = table.stats();
        assert_eq!(
            stats.conflicts, 1,
            "exactly the overlapping request conflicts"
        );
        assert_eq!(stats.live, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn lease_released_when_the_holder_panics() {
        let table = LeaseTable::default();
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let (_lease, _) = table.acquire(vec![rw(0, 100)]);
                    panic!("execute dies while holding its lease");
                })
                .join()
        });
        assert!(died.is_err(), "holder thread must have panicked");
        let stats = table.stats();
        assert_eq!(stats.live, 0, "unwind must release the lease");
        assert_eq!(stats.queued, 0);
        // The range is immediately reacquirable with no queueing — the
        // table survived the poison and the dead holder's ticket.
        let (_lease, conflicted) = table.acquire(vec![rw(0, 100)]);
        assert!(!conflicted, "a released range must not conflict");
    }
}
