//! Kernel execution: the sequencer + FPU interpreter.
//!
//! Executes a compiled [`Kernel`] over one half-strip of a node's subgrid.
//! Two modes are provided:
//!
//! * [`ExecMode::Cycle`] — cycle-accurate: models the WTL3164 pipeline
//!   (multiply at cycle *k*, add at *k+2*, register writeback at *k+4*),
//!   the interface-chip load latency, pipe-direction reversal penalties,
//!   and per-line sequencer loop overhead. Reads of a register with an
//!   in-flight write to a *different* value are reported as hazards —
//!   they mean the compiler scheduled a read inside the writeback window.
//! * [`ExecMode::Fast`] — functional: immediate register effects, no cycle
//!   accounting. Produces bit-identical results to `Cycle` whenever the
//!   kernel is hazard-free (a property the test suite checks).
//!
//! The paper's microcode computed memory addresses from run-time
//! parameters in the sequencer ALU (§4.3); here the [`StripContext`]
//! carries those parameters and [`FieldLayout::addr`] is the address
//! computation.

use crate::config::{MachineConfig, FPU_REGISTERS};
use crate::isa::{DynamicPart, Kernel, MacAcc, MemRef, Reg};
use crate::memory::NodeMemory;
use std::fmt;

/// Address arithmetic for one array as laid out in node memory.
///
/// `addr(row, col) = base + (row + row_offset) * row_stride + col +
/// col_offset`, where `row`/`col` are *logical* subgrid coordinates. A
/// padded (halo) buffer uses positive offsets so that logical `(-1, -1)`
/// falls on the halo ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldLayout {
    /// Base address of the buffer in node memory.
    pub base: usize,
    /// Words per buffer row.
    pub row_stride: usize,
    /// Added to the logical row (halo padding depth).
    pub row_offset: i64,
    /// Added to the logical column (halo padding depth).
    pub col_offset: i64,
}

impl FieldLayout {
    /// Computes the node-memory address of logical element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the padded coordinates go negative (an addressing bug).
    #[inline]
    pub fn addr(&self, row: i64, col: i64) -> usize {
        let r = row + self.row_offset;
        let c = col + self.col_offset;
        assert!(
            r >= 0 && c >= 0,
            "address underflow at logical ({row}, {col})"
        );
        self.base + r as usize * self.row_stride + c as usize
    }
}

/// Run-time parameters for executing a kernel over one half-strip.
#[derive(Debug, Clone)]
pub struct StripContext<'a> {
    /// Layouts of the padded source (halo) buffers, indexed by
    /// `MemRef::Source.array` (single-source stencils pass one entry).
    pub srcs: &'a [FieldLayout],
    /// Layout of the result buffer.
    pub res: FieldLayout,
    /// Layouts of the coefficient arrays, indexed by `MemRef::Coeff.array`.
    pub coeffs: &'a [FieldLayout],
    /// Address of a word holding `1.0` (the "ones page").
    pub ones_addr: usize,
    /// Address of a word holding `0.0`.
    pub zeros_addr: usize,
    /// Logical row of the first line to process.
    pub start_row: i64,
    /// Number of lines to process.
    pub lines: usize,
    /// Logical column of the strip's first result position.
    pub col0: i64,
}

/// Execution mode selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Cycle-accurate pipeline model with hazard detection.
    Cycle,
    /// Fast functional interpretation (no timing).
    Fast,
}

/// Which engine executes a stencil, and so whether it is timed.
///
/// `Cycle` runs the scalar engine under the pipeline model, which is
/// inherently per-node sequential. The two fast engines skip the model
/// and produce bit-identical memory and counters; `Lockstep` runs the
/// machine's own loop order (node-inner) over node-major lane storage,
/// sweeping whole subgrid rows of all nodes from a program lowered from
/// the stencil IR at plan build ([`crate::kernels`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecEngine {
    /// The node-outer scalar interpreter in [`ExecMode::Cycle`]: the
    /// paper's cycle counts.
    #[default]
    Cycle,
    /// The node-outer scalar interpreter in [`ExecMode::Fast`]: the
    /// oracle.
    Scalar,
    /// Node-inner row sweeps over node lanes, in [`ExecMode::Fast`].
    Lockstep,
}

impl ExecEngine {
    /// The mode the scalar engine runs in under this choice.
    pub fn mode(self) -> ExecMode {
        match self {
            ExecEngine::Cycle => ExecMode::Cycle,
            ExecEngine::Scalar | ExecEngine::Lockstep => ExecMode::Fast,
        }
    }
}

/// Cycle and operation counts for one executed half-strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripRun {
    /// Total cycles including startup, loop overhead, and penalties.
    /// Zero in [`ExecMode::Fast`].
    pub cycles: u64,
    /// Multiply-add instructions issued (including dummy thread padding).
    pub macs: u64,
    /// Load instructions issued.
    pub loads: u64,
    /// Store instructions issued.
    pub stores: u64,
    /// Explicit pipeline-drain bubbles.
    pub nops: u64,
    /// Memory-pipe direction reversals taken.
    pub reversals: u64,
}

impl StripRun {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &StripRun) {
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.loads += other.loads;
        self.stores += other.stores;
        self.nops += other.nops;
        self.reversals += other.reversals;
    }
}

/// A pipeline hazard detected during cycle-accurate execution: the kernel
/// read a register while a write with a different value was still in
/// flight. This always indicates a compiler scheduling bug.
#[derive(Debug, Clone, PartialEq)]
pub struct HazardError {
    /// The register read too early.
    pub reg: Reg,
    /// The cycle at which the offending read was issued.
    pub at_cycle: u64,
    /// The cycle at which the in-flight write would have committed.
    pub commit_cycle: u64,
}

impl fmt::Display for HazardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline hazard: {} read at cycle {} while a write commits at cycle {}",
            self.reg, self.at_cycle, self.commit_cycle
        )
    }
}

impl std::error::Error for HazardError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipeDir {
    ToFpu,
    ToMem,
}

/// The FPU + sequencer interpreter state for one node.
#[derive(Debug)]
struct Fpu {
    regs: [f32; FPU_REGISTERS],
    /// In-flight register writes: `(commit_cycle, reg, value)`.
    pending: Vec<(u64, Reg, f32)>,
    /// Running partial sums of the two interleaved multiply-add threads.
    chain: [f32; 2],
    /// Count of MACs issued (parity selects the thread).
    mac_count: u64,
    last_dir: Option<PipeDir>,
}

impl Fpu {
    fn new() -> Self {
        let mut regs = [0.0; FPU_REGISTERS];
        regs[Reg::ONE.0 as usize] = 1.0;
        Fpu {
            regs,
            pending: Vec::new(),
            chain: [0.0; 2],
            mac_count: 0,
            last_dir: None,
        }
    }

    fn commit_due(&mut self, now: u64) {
        if self.pending.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, reg, value) = self.pending.swap_remove(i);
                self.regs[reg.0 as usize] = value;
            } else {
                i += 1;
            }
        }
    }

    /// Reads a register, failing if an in-flight write would change it.
    fn read(&self, reg: Reg, now: u64) -> Result<f32, HazardError> {
        let current = self.regs[reg.0 as usize];
        for &(commit, r, value) in &self.pending {
            // Writes of an identical value (the dummy thread keeping the
            // zero register at zero) are benign.
            if r == reg && value.to_bits() != current.to_bits() {
                return Err(HazardError {
                    reg,
                    at_cycle: now,
                    commit_cycle: commit,
                });
            }
        }
        Ok(current)
    }

    fn reversal(&mut self, dir: PipeDir) -> bool {
        let flip = self.last_dir.is_some_and(|d| d != dir);
        self.last_dir = Some(dir);
        flip
    }
}

/// Executes `kernel` over the half-strip described by `ctx` against `mem`.
///
/// Returns cycle and operation counts (cycle counts are zero in
/// [`ExecMode::Fast`]).
///
/// # Errors
///
/// Returns [`HazardError`] if the kernel reads a register during the
/// writeback window of an in-flight write (cycle mode only). Such a
/// kernel is miscompiled.
///
/// # Panics
///
/// Panics if a memory reference resolves out of the node memory bounds,
/// or if a `MemRef::Coeff` names an array index not present in
/// `ctx.coeffs`.
pub fn run_strip(
    kernel: &Kernel,
    ctx: &StripContext<'_>,
    mem: &mut NodeMemory,
    cfg: &MachineConfig,
    mode: ExecMode,
) -> Result<StripRun, HazardError> {
    // One dispatch on the mode, then a monomorphized loop: the fast
    // variant compiles with every cycle-model branch folded away.
    match mode {
        ExecMode::Cycle => run_strip_impl::<true>(kernel, ctx, mem, cfg),
        ExecMode::Fast => run_strip_impl::<false>(kernel, ctx, mem, cfg),
    }
}

fn run_strip_impl<const CYCLE: bool>(
    kernel: &Kernel,
    ctx: &StripContext<'_>,
    mem: &mut NodeMemory,
    cfg: &MachineConfig,
) -> Result<StripRun, HazardError> {
    let mut fpu = Fpu::new();
    let mut run = StripRun::default();
    let mut now: u64 = u64::from(cfg.halfstrip_startup_cycles);

    // Prologue: fill the rings for line 0.
    for part in &kernel.prologue {
        step::<CYCLE>(
            part,
            ctx.start_row,
            ctx,
            mem,
            &mut fpu,
            &mut run,
            &mut now,
            cfg,
        )?;
    }

    for line in 0..ctx.lines {
        let row = ctx.start_row + line as i64 * i64::from(kernel.row_step);
        let pattern = &kernel.body[line % kernel.body.len()];
        for part in pattern {
            step::<CYCLE>(part, row, ctx, mem, &mut fpu, &mut run, &mut now, cfg)?;
        }
        now += u64::from(cfg.line_loop_overhead);
    }

    if CYCLE {
        // Drain the pipeline: account for any writes still in flight.
        if let Some(&(last, ..)) = fpu.pending.iter().max_by_key(|p| p.0) {
            now = now.max(last);
        }
        fpu.commit_due(now);
        run.cycles = now;
    }
    Ok(run)
}

#[inline]
fn resolve(mref: MemRef, row: i64, ctx: &StripContext<'_>) -> usize {
    match mref {
        MemRef::Source { array, drow, dcol } => {
            ctx.srcs[array as usize].addr(row + i64::from(drow), ctx.col0 + i64::from(dcol))
        }
        MemRef::Coeff { array, col } => {
            ctx.coeffs[array as usize].addr(row, ctx.col0 + i64::from(col))
        }
        MemRef::Result { col } => ctx.res.addr(row, ctx.col0 + i64::from(col)),
        MemRef::Ones => ctx.ones_addr,
        MemRef::Zeros => ctx.zeros_addr,
    }
}

/// Splits a [`DynamicPart`] into its register operation and its memory
/// reference, the decomposition both entry points share: [`run_strip`]
/// resolves the reference per step, [`ResolvedStrip::new`] once.
#[inline]
fn decompose(part: &DynamicPart) -> (ResolvedOp, Option<MemRef>) {
    match *part {
        DynamicPart::Mac {
            coeff,
            data,
            acc,
            dest,
        } => (ResolvedOp::Mac { data, acc, dest }, Some(coeff)),
        DynamicPart::Load { src, dest } => (ResolvedOp::Load { dest }, Some(src)),
        DynamicPart::Store { src, dest } => (ResolvedOp::Store { src }, Some(dest)),
        DynamicPart::Nop => (ResolvedOp::Nop, None),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn step<const CYCLE: bool>(
    part: &DynamicPart,
    row: i64,
    ctx: &StripContext<'_>,
    mem: &mut NodeMemory,
    fpu: &mut Fpu,
    run: &mut StripRun,
    now: &mut u64,
    cfg: &MachineConfig,
) -> Result<(), HazardError> {
    let (op, mref) = decompose(part);
    let addr = mref.map_or(0, |m| resolve(m, row, ctx));
    exec_resolved::<CYCLE>(op, addr, mem, fpu, run, now, cfg)
}

/// Executes one operation against a concrete, already-resolved memory
/// address. This is the single execution core shared by [`run_strip`]
/// (which resolves addresses per step) and [`run_resolved_strip`] (which
/// resolves them once at plan-build time), so the two paths are
/// bit-identical and cycle-identical by construction.
///
/// Monomorphized on `CYCLE`: the fast instantiation carries no pipeline
/// state updates, no hazard checks, and no reversal bookkeeping — the
/// compiler folds every `if CYCLE` away instead of testing a runtime
/// flag once per dynamic part.
#[allow(clippy::too_many_arguments)]
#[inline]
fn exec_resolved<const CYCLE: bool>(
    op: ResolvedOp,
    addr: usize,
    mem: &mut NodeMemory,
    fpu: &mut Fpu,
    run: &mut StripRun,
    now: &mut u64,
    cfg: &MachineConfig,
) -> Result<(), HazardError> {
    if CYCLE {
        fpu.commit_due(*now);
    }
    // Issue cost of this dynamic part; multiply-adds pace at the
    // calibrated rate (see `MachineConfig::mac_issue_cycles`).
    let mut advance: u64 = 1;
    match op {
        ResolvedOp::Mac { data, acc, dest } => {
            if CYCLE && fpu.reversal(PipeDir::ToFpu) {
                *now += u64::from(cfg.pipe_reversal_penalty);
                run.reversals += 1;
                fpu.commit_due(*now);
            }
            let coeff_val = mem.read(addr);
            let data_val = if CYCLE {
                fpu.read(data, *now)?
            } else {
                fpu.regs[data.0 as usize]
            };
            let product = coeff_val * data_val;
            let thread = (fpu.mac_count % 2) as usize;
            fpu.mac_count += 1;
            match acc {
                MacAcc::Start(reg) => {
                    let addend = if CYCLE {
                        fpu.read(reg, *now)?
                    } else {
                        fpu.regs[reg.0 as usize]
                    };
                    fpu.chain[thread] = product + addend;
                }
                MacAcc::Chain => {
                    fpu.chain[thread] += product;
                }
            }
            if let Some(dest) = dest {
                let value = fpu.chain[thread];
                if CYCLE {
                    fpu.pending
                        .push((*now + u64::from(cfg.mac_commit_latency), dest, value));
                } else {
                    fpu.regs[dest.0 as usize] = value;
                }
            }
            run.macs += 1;
            advance = u64::from(cfg.mac_issue_cycles);
        }
        ResolvedOp::Load { dest } => {
            if CYCLE && fpu.reversal(PipeDir::ToFpu) {
                *now += u64::from(cfg.pipe_reversal_penalty);
                run.reversals += 1;
                fpu.commit_due(*now);
            }
            let value = mem.read(addr);
            if CYCLE {
                fpu.pending
                    .push((*now + u64::from(cfg.load_commit_latency), dest, value));
            } else {
                fpu.regs[dest.0 as usize] = value;
            }
            run.loads += 1;
        }
        ResolvedOp::Store { src } => {
            if CYCLE && fpu.reversal(PipeDir::ToMem) {
                *now += u64::from(cfg.pipe_reversal_penalty);
                run.reversals += 1;
                fpu.commit_due(*now);
            }
            let value = if CYCLE {
                fpu.read(src, *now)?
            } else {
                fpu.regs[src.0 as usize]
            };
            mem.write(addr, value);
            run.stores += 1;
        }
        ResolvedOp::Nop => {
            run.nops += 1;
        }
    }
    *now += advance;
    Ok(())
}

/// A [`DynamicPart`] with its memory reference stripped out: just the
/// register operation. The address arrives separately — per step in
/// [`run_strip`], pre-resolved in a [`ResolvedStrip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedOp {
    /// Chained multiply-add; the address is the coefficient operand.
    Mac {
        /// Data register (the preloaded source value).
        data: Reg,
        /// Accumulator behavior.
        acc: MacAcc,
        /// Optional register destination for the chain value.
        dest: Option<Reg>,
    },
    /// Memory-to-register load; the address is the load source.
    Load {
        /// Destination register.
        dest: Reg,
    },
    /// Register-to-memory store; the address is the store target.
    Store {
        /// Source register.
        src: Reg,
    },
    /// Pipeline-drain bubble (no address).
    Nop,
}

/// One pre-resolved step: an operation, the concrete address of its
/// first occurrence, and the per-period address stride.
///
/// Kernel addresses are affine in the line index: pattern line `p` of a
/// kernel with period `L` executes at lines `p, p+L, p+2L, …`, and each
/// period moves the address by `L · row_step · row_stride` of the
/// referenced buffer. Storing `(addr, delta)` therefore captures every
/// occurrence with one add per execution — no layout lookup, no bounds
/// recheck, no sign handling in the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedPart {
    /// The register operation.
    pub op: ResolvedOp,
    /// Address at the part's first execution.
    pub addr: usize,
    /// Address advance per kernel period (0 for prologue parts, constant
    /// pages, and literal coefficient pages).
    pub delta: i64,
}

/// A half-strip with every memory address pre-resolved — what the scalar
/// engine runs for one binding of an execution plan.
///
/// Built once from a kernel and its [`StripContext`]; executed many
/// times by [`run_resolved_strip`], which replays the same operation
/// stream as [`run_strip`] (same order, same cycle accounting) without
/// per-step address resolution. Only the pattern lines that actually
/// execute are stored, so a strip shorter than the kernel period never
/// resolves addresses it would never touch.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedStrip {
    prologue: Vec<ResolvedPart>,
    body: Vec<Vec<ResolvedPart>>,
    lines: usize,
}

impl ResolvedStrip {
    /// Pre-resolves `kernel` over the half-strip described by `ctx`.
    ///
    /// # Panics
    ///
    /// Panics on the same addressing errors [`run_strip`] would hit:
    /// out-of-halo accesses or coefficient indices missing from `ctx`.
    pub fn new(kernel: &Kernel, ctx: &StripContext<'_>) -> Self {
        let period = kernel.body.len();
        // Store only patterns that execute: a strip shorter than the
        // kernel period must not resolve lines it never reaches (their
        // rows may fall outside the halo).
        let stored = period.min(ctx.lines);
        let resolve_part = |part: &DynamicPart, row: i64, delta_periods: i64| -> ResolvedPart {
            let (op, mref) = decompose(part);
            // The per-period delta follows the referenced layout's stride.
            let (addr, stride) = match mref {
                None => (0, 0),
                Some(m) => {
                    let stride = match m {
                        MemRef::Source { array, .. } => ctx.srcs[array as usize].row_stride,
                        MemRef::Coeff { array, .. } => ctx.coeffs[array as usize].row_stride,
                        MemRef::Result { .. } => ctx.res.row_stride,
                        MemRef::Ones | MemRef::Zeros => 0,
                    };
                    (resolve(m, row, ctx), stride as i64)
                }
            };
            ResolvedPart {
                op,
                addr,
                delta: delta_periods * i64::from(kernel.row_step) * stride,
            }
        };
        let prologue = kernel
            .prologue
            .iter()
            .map(|part| resolve_part(part, ctx.start_row, 0))
            .collect();
        let body = (0..stored)
            .map(|p| {
                let row = ctx.start_row + p as i64 * i64::from(kernel.row_step);
                kernel.body[p % period]
                    .iter()
                    .map(|part| resolve_part(part, row, stored as i64))
                    .collect()
            })
            .collect();
        ResolvedStrip {
            prologue,
            body,
            lines: ctx.lines,
        }
    }

    /// Lines this strip processes.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Dynamic steps executed per run (prologue plus every body line).
    pub fn steps(&self) -> u64 {
        let body: usize = (0..self.lines)
            .map(|l| self.body[l % self.body.len().max(1)].len())
            .sum();
        (self.prologue.len() + body) as u64
    }
}

/// The counters a fast-mode run of `kernel` over a `lines`-line
/// half-strip reports on every node — [`run_strip`] or
/// [`run_resolved_strip`] in [`ExecMode::Fast`] — counted from the
/// kernel's operation stream without resolving or running it: no
/// cycles, no reversals. Line `l` runs pattern `l % period`, so each
/// pattern is counted once and weighted by the lines that run it.
pub fn fast_counts(kernel: &Kernel, lines: usize) -> StripRun {
    let mut run = StripRun::default();
    let mut count = |parts: &[DynamicPart], times: usize| {
        for part in parts {
            let counter = match part {
                DynamicPart::Mac { .. } => &mut run.macs,
                DynamicPart::Load { .. } => &mut run.loads,
                DynamicPart::Store { .. } => &mut run.stores,
                DynamicPart::Nop => &mut run.nops,
            };
            *counter += times as u64;
        }
    };
    count(&kernel.prologue, 1);
    let period = kernel.body.len();
    for (p, pattern) in kernel.body.iter().enumerate().take(lines) {
        count(pattern, (lines - p).div_ceil(period));
    }
    run
}

/// Executes a pre-resolved half-strip against one node's memory.
///
/// Replays exactly the operation stream [`run_strip`] would execute for
/// the originating kernel and context — same order, same cycle
/// accounting, same hazard semantics — with all address computation done
/// at build time.
///
/// # Errors
///
/// Returns [`HazardError`] exactly as [`run_strip`] would (cycle mode
/// only).
pub fn run_resolved_strip(
    strip: &ResolvedStrip,
    mem: &mut NodeMemory,
    cfg: &MachineConfig,
    mode: ExecMode,
) -> Result<StripRun, HazardError> {
    match mode {
        ExecMode::Cycle => run_resolved_strip_impl::<true>(strip, mem, cfg),
        ExecMode::Fast => run_resolved_strip_impl::<false>(strip, mem, cfg),
    }
}

fn run_resolved_strip_impl<const CYCLE: bool>(
    strip: &ResolvedStrip,
    mem: &mut NodeMemory,
    cfg: &MachineConfig,
) -> Result<StripRun, HazardError> {
    let mut fpu = Fpu::new();
    let mut run = StripRun::default();
    let mut now: u64 = u64::from(cfg.halfstrip_startup_cycles);

    for part in &strip.prologue {
        exec_resolved::<CYCLE>(part.op, part.addr, mem, &mut fpu, &mut run, &mut now, cfg)?;
    }

    let period = strip.body.len();
    for line in 0..strip.lines {
        let pattern = &strip.body[line % period];
        let k = (line / period) as i64;
        for part in pattern {
            let addr = (part.addr as i64 + k * part.delta) as usize;
            exec_resolved::<CYCLE>(part.op, addr, mem, &mut fpu, &mut run, &mut now, cfg)?;
        }
        now += u64::from(cfg.line_loop_overhead);
    }

    if CYCLE {
        if let Some(&(last, ..)) = fpu.pending.iter().max_by_key(|p| p.0) {
            now = now.max(last);
        }
        fpu.commit_due(now);
        run.cycles = now;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::StaticPart;

    fn cfg() -> MachineConfig {
        MachineConfig::test_board_16()
    }

    /// A 1-wide kernel computing `r = c * x` for a single-tap stencil.
    fn identity_kernel() -> Kernel {
        Kernel {
            static_part: StaticPart::ChainedMac,
            width: 1,
            row_step: -1,
            prologue: vec![],
            body: vec![vec![
                DynamicPart::Load {
                    src: MemRef::Source {
                        array: 0,
                        drow: 0,
                        dcol: 0,
                    },
                    dest: Reg(2),
                },
                DynamicPart::Nop,
                DynamicPart::Nop,
                // Real thread.
                DynamicPart::Mac {
                    coeff: MemRef::Coeff { array: 0, col: 0 },
                    data: Reg(2),
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: Some(Reg(3)),
                },
                // Dummy partner thread.
                DynamicPart::Mac {
                    coeff: MemRef::Zeros,
                    data: Reg::ZERO,
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: Some(Reg::ZERO),
                },
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Store {
                    src: Reg(3),
                    dest: MemRef::Result { col: 0 },
                },
            ]],
            useful_flops_per_line: 1,
        }
    }

    /// Memory map: [src 4x4 | res 4x4 | coeff 4x4 | ones | zeros].
    fn setup() -> (NodeMemory, [FieldLayout; 3], usize, usize) {
        let mut mem = NodeMemory::new(64);
        let src = FieldLayout {
            base: 0,
            row_stride: 4,
            row_offset: 0,
            col_offset: 0,
        };
        let res = FieldLayout { base: 16, ..src };
        let coeff = FieldLayout { base: 32, ..src };
        for i in 0..16 {
            mem.write(i, i as f32 + 1.0); // src = 1..16
            mem.write(32 + i, 2.0); // coeff = 2.0
        }
        mem.write(48, 1.0); // ones
        mem.write(49, 0.0); // zeros
        (mem, [src, res, coeff], 48, 49)
    }

    fn run(mode: ExecMode) -> (NodeMemory, StripRun) {
        let (mut mem, [src, res, coeff], ones, zeros) = setup();
        let kernel = identity_kernel();
        let coeffs = [coeff];
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr: ones,
            zeros_addr: zeros,
            start_row: 3,
            lines: 4,
            col0: 1,
        };
        let r = run_strip(&kernel, &ctx, &mut mem, &cfg(), mode).unwrap();
        (mem, r)
    }

    #[test]
    fn cycle_mode_computes_column_of_products() {
        let (mem, run) = run(ExecMode::Cycle);
        // Column 1 of src is [2, 6, 10, 14]; coeff 2.0 doubles it.
        // Lines walk north from row 3 to row 0.
        for row in 0..4 {
            let got = mem.read(16 + row * 4 + 1);
            let want = 2.0 * (row as f32 * 4.0 + 2.0);
            assert_eq!(got, want, "row {row}");
        }
        assert_eq!(run.macs, 8);
        assert_eq!(run.loads, 4);
        assert_eq!(run.stores, 4);
        assert!(run.cycles > 40, "startup must be included: {}", run.cycles);
    }

    #[test]
    fn fast_mode_matches_cycle_mode() {
        let (mem_c, _) = run(ExecMode::Cycle);
        let (mem_f, run_f) = run(ExecMode::Fast);
        assert_eq!(mem_c, mem_f);
        assert_eq!(run_f.cycles, 0);
    }

    #[test]
    fn reversal_penalties_are_counted() {
        let (_, run) = run(ExecMode::Cycle);
        // Each line: loads/macs (ToFpu) then store (ToMem): one reversal
        // into the store and one back at the next line's load.
        assert_eq!(run.reversals, 7);
    }

    #[test]
    fn hazard_read_during_writeback_window_is_reported() {
        let kernel = Kernel {
            static_part: StaticPart::ChainedMac,
            width: 1,
            row_step: -1,
            prologue: vec![],
            body: vec![vec![
                DynamicPart::Mac {
                    coeff: MemRef::Coeff { array: 0, col: 0 },
                    data: Reg::ONE,
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: Some(Reg(3)),
                },
                // Store issued immediately: reads r3 inside its writeback
                // window (commit 4 cycles after the MAC).
                DynamicPart::Store {
                    src: Reg(3),
                    dest: MemRef::Result { col: 0 },
                },
            ]],
            useful_flops_per_line: 1,
        };
        let (mut mem, [src, res, coeff], ones, zeros) = setup();
        let coeffs = [coeff];
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr: ones,
            zeros_addr: zeros,
            start_row: 0,
            lines: 1,
            col0: 0,
        };
        // Pin issue costs so the back-to-back store really falls inside
        // the 4-cycle writeback window.
        let mut tight = cfg();
        tight.mac_issue_cycles = 1;
        tight.pipe_reversal_penalty = 0;
        let err = run_strip(&kernel, &ctx, &mut mem, &tight, ExecMode::Cycle).unwrap_err();
        assert_eq!(err.reg, Reg(3));
        assert!(err.commit_cycle > err.at_cycle);
        assert!(err.to_string().contains("hazard"));
    }

    #[test]
    fn benign_zero_register_writes_are_not_hazards() {
        // Two back-to-back dummy MACs both write 0.0 into r0 and read r0;
        // the value never changes, so no hazard is raised.
        let kernel = Kernel {
            static_part: StaticPart::ChainedMac,
            width: 1,
            row_step: -1,
            prologue: vec![],
            body: vec![vec![
                DynamicPart::Mac {
                    coeff: MemRef::Zeros,
                    data: Reg::ZERO,
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: Some(Reg::ZERO),
                },
                DynamicPart::Mac {
                    coeff: MemRef::Zeros,
                    data: Reg::ZERO,
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: Some(Reg::ZERO),
                },
            ]],
            useful_flops_per_line: 0,
        };
        let (mut mem, [src, res, coeff], ones, zeros) = setup();
        let coeffs = [coeff];
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr: ones,
            zeros_addr: zeros,
            start_row: 0,
            lines: 1,
            col0: 0,
        };
        run_strip(&kernel, &ctx, &mut mem, &cfg(), ExecMode::Cycle).unwrap();
    }

    #[test]
    fn field_layout_applies_halo_offsets() {
        let f = FieldLayout {
            base: 100,
            row_stride: 10,
            row_offset: 2,
            col_offset: 3,
        };
        // Logical (-2, -3) is the buffer's first word.
        assert_eq!(f.addr(-2, -3), 100);
        assert_eq!(f.addr(0, 0), 100 + 2 * 10 + 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn field_layout_rejects_out_of_halo_access() {
        let f = FieldLayout {
            base: 0,
            row_stride: 10,
            row_offset: 1,
            col_offset: 1,
        };
        let _ = f.addr(-2, 0);
    }

    /// A 2-line-period kernel (alternating result columns) to exercise
    /// the pattern-cycling and per-period address delta in resolved form.
    fn two_period_kernel() -> Kernel {
        Kernel {
            static_part: StaticPart::ChainedMac,
            width: 1,
            row_step: -1,
            prologue: vec![DynamicPart::Load {
                src: MemRef::Source {
                    array: 0,
                    drow: 0,
                    dcol: 0,
                },
                dest: Reg(2),
            }],
            body: vec![
                vec![
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Mac {
                        coeff: MemRef::Coeff { array: 0, col: 0 },
                        data: Reg(2),
                        acc: MacAcc::Start(Reg::ZERO),
                        dest: Some(Reg(3)),
                    },
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Store {
                        src: Reg(3),
                        dest: MemRef::Result { col: 0 },
                    },
                ],
                vec![
                    DynamicPart::Load {
                        src: MemRef::Source {
                            array: 0,
                            drow: 1,
                            dcol: 0,
                        },
                        dest: Reg(2),
                    },
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Mac {
                        coeff: MemRef::Coeff { array: 0, col: 0 },
                        data: Reg(2),
                        acc: MacAcc::Start(Reg::ZERO),
                        dest: Some(Reg(4)),
                    },
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Nop,
                    DynamicPart::Store {
                        src: Reg(4),
                        dest: MemRef::Result { col: 0 },
                    },
                ],
            ],
            useful_flops_per_line: 1,
        }
    }

    fn differential(kernel: &Kernel, ctx: &StripContext<'_>, mode: ExecMode) {
        let (mut direct_mem, ..) = setup();
        let mut resolved_mem = direct_mem.clone();
        let direct = run_strip(kernel, ctx, &mut direct_mem, &cfg(), mode).unwrap();
        let strip = ResolvedStrip::new(kernel, ctx);
        let resolved = run_resolved_strip(&strip, &mut resolved_mem, &cfg(), mode).unwrap();
        assert_eq!(direct, resolved, "StripRun counters must match");
        assert_eq!(direct_mem, resolved_mem, "memory must match bitwise");
    }

    #[test]
    fn resolved_strip_matches_run_strip() {
        let kernel = identity_kernel();
        let (_, [src, res, coeff], ones, zeros) = setup();
        let coeffs = [coeff];
        let srcs = [src];
        for (start_row, lines) in [(3i64, 4usize), (1, 2), (0, 1)] {
            let ctx = StripContext {
                srcs: &srcs,
                res,
                coeffs: &coeffs,
                ones_addr: ones,
                zeros_addr: zeros,
                start_row,
                lines,
                col0: 1,
            };
            differential(&kernel, &ctx, ExecMode::Cycle);
            differential(&kernel, &ctx, ExecMode::Fast);
        }
    }

    #[test]
    fn resolved_strip_cycles_multi_line_patterns() {
        let kernel = two_period_kernel();
        let (_, [src, res, coeff], ones, zeros) = setup();
        let coeffs = [coeff];
        let srcs = [src];
        // lines > period exercises the per-period delta; lines < period
        // exercises pattern truncation (pattern 1 would address row -1
        // relative to start and must not be resolved).
        for (start_row, lines) in [(3i64, 4usize), (3, 3), (0, 1)] {
            let ctx = StripContext {
                srcs: &srcs,
                res,
                coeffs: &coeffs,
                ones_addr: ones,
                zeros_addr: zeros,
                start_row,
                lines,
                col0: 1,
            };
            differential(&kernel, &ctx, ExecMode::Cycle);
            differential(&kernel, &ctx, ExecMode::Fast);
        }
    }

    #[test]
    fn resolved_strip_reports_steps() {
        let kernel = identity_kernel();
        let (_, [src, res, coeff], ones, zeros) = setup();
        let coeffs = [coeff];
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr: ones,
            zeros_addr: zeros,
            start_row: 3,
            lines: 4,
            col0: 1,
        };
        let strip = ResolvedStrip::new(&kernel, &ctx);
        assert_eq!(strip.lines(), 4);
        // identity_kernel: no prologue, 10 parts per line, 4 lines.
        assert_eq!(strip.steps(), 40);
    }

    #[test]
    fn interleaved_threads_accumulate_independently() {
        // Two interleaved 2-tap chains over the same data: thread 0
        // computes c*(x) + c*(x_east), thread 1 the same for the next
        // column. Each thread's partials must not mix.
        let kernel = Kernel {
            static_part: StaticPart::ChainedMac,
            width: 2,
            row_step: -1,
            prologue: vec![],
            body: vec![vec![
                DynamicPart::Load {
                    src: MemRef::Source {
                        array: 0,
                        drow: 0,
                        dcol: 0,
                    },
                    dest: Reg(2),
                },
                DynamicPart::Load {
                    src: MemRef::Source {
                        array: 0,
                        drow: 0,
                        dcol: 1,
                    },
                    dest: Reg(3),
                },
                DynamicPart::Load {
                    src: MemRef::Source {
                        array: 0,
                        drow: 0,
                        dcol: 2,
                    },
                    dest: Reg(4),
                },
                DynamicPart::Nop,
                DynamicPart::Nop,
                // thread 0 start: result col 0
                DynamicPart::Mac {
                    coeff: MemRef::Coeff { array: 0, col: 0 },
                    data: Reg(2),
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: None,
                },
                // thread 1 start: result col 1
                DynamicPart::Mac {
                    coeff: MemRef::Coeff { array: 0, col: 1 },
                    data: Reg(3),
                    acc: MacAcc::Start(Reg::ZERO),
                    dest: None,
                },
                // thread 0 finish
                DynamicPart::Mac {
                    coeff: MemRef::Coeff { array: 1, col: 0 },
                    data: Reg(3),
                    acc: MacAcc::Chain,
                    dest: Some(Reg(2)),
                },
                // thread 1 finish
                DynamicPart::Mac {
                    coeff: MemRef::Coeff { array: 1, col: 1 },
                    data: Reg(4),
                    acc: MacAcc::Chain,
                    dest: Some(Reg(3)),
                },
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Store {
                    src: Reg(2),
                    dest: MemRef::Result { col: 0 },
                },
                DynamicPart::Store {
                    src: Reg(3),
                    dest: MemRef::Result { col: 1 },
                },
            ]],
            useful_flops_per_line: 6,
        };
        let (_, [src, res, _], _, _) = setup();
        // Fresh, larger memory: src 4x4 at 0, res at 16, coeff arrays of
        // 2.0 at 32 and 3.0 at 64, ones/zeros at 120/121.
        let c2 = FieldLayout {
            base: 32,
            row_stride: 4,
            row_offset: 0,
            col_offset: 0,
        };
        let mut mem = NodeMemory::new(128);
        for i in 0..16 {
            mem.write(i, (i + 1) as f32);
            mem.write(32 + i, 2.0);
            mem.write(64 + i, 3.0);
        }
        mem.write(120, 1.0);
        mem.write(121, 0.0);
        let c3 = FieldLayout { base: 64, ..c2 };
        let coeffs = [c2, c3];
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr: 120,
            zeros_addr: 121,
            start_row: 1,
            lines: 1,
            col0: 0,
        };
        run_strip(&kernel, &ctx, &mut mem, &cfg(), ExecMode::Cycle).unwrap();
        // Row 1 of src is [5, 6, 7]; result col0 = 2*5 + 3*6 = 28,
        // col1 = 2*6 + 3*7 = 33.
        assert_eq!(mem.read(16 + 4), 28.0);
        assert_eq!(mem.read(16 + 5), 33.0);
    }

    /// The counters counted from a kernel's operation stream equal what
    /// a fast-mode run of its resolved strip reports, for strips shorter
    /// than, equal to and longer than the kernel period.
    #[test]
    fn fast_counts_match_a_fast_run() {
        let (_, [src, res, coeff], ones, zeros) = setup();
        let coeffs = [coeff];
        let srcs = [src];
        for kernel in [identity_kernel(), two_period_kernel()] {
            for (start_row, lines) in [(3i64, 4usize), (3, 3), (0, 1)] {
                let ctx = StripContext {
                    srcs: &srcs,
                    res,
                    coeffs: &coeffs,
                    ones_addr: ones,
                    zeros_addr: zeros,
                    start_row,
                    lines,
                    col0: 1,
                };
                let strip = ResolvedStrip::new(&kernel, &ctx);
                let (mut mem, ..) = setup();
                let run = run_resolved_strip(&strip, &mut mem, &cfg(), ExecMode::Fast).unwrap();
                assert_eq!(
                    fast_counts(&kernel, lines),
                    run,
                    "{lines} lines from row {start_row}, period {}",
                    kernel.unroll()
                );
            }
        }
    }
}
