//! The lockstep engine: plan-time kernel generation and operand-direct
//! sweeps.
//!
//! The paper's central discipline — resolve everything shape-dependent
//! *before* the inner loop runs — applies to a lane strip
//! ([`crate::exec::ResolvedStrip::translate`]) beyond its addresses. The
//! compiler already fixes at compile time which loaded value each
//! multiply-add reads (§5.3's ring-buffer registers), so on the host
//! every operand's lane-mirror address is known at plan build.
//! [`StripKernels::compile`] resolves it there, and `StripKernels::run`
//! sweeps a whole strip in one call — no per-step dispatch, no emulated
//! register file — reading each multiply-add's operands straight from
//! the lane mirror and writing each finished chain straight to the word
//! its store targets: the host form of SARIS's indirect stream
//! registers, which feed the FPU from memory by index instead of
//! through explicit loads. The scalar engine
//! ([`crate::exec::run_resolved_strip`]) defines the semantics every
//! sweep reproduces bit for bit.
//!
//! **Provenance.** `compile` replays the strip's prologue and at most two
//! body periods over a table of what each register holds: a loaded lane
//! word, the constant `ZERO`/`ONE` row, or a chain result. Every tap's
//! data operand and every `Start` addend resolves to its source — a lane
//! word `base + j·delta` at the `j`-th execution of its pattern line, or
//! a constant row — and every chain result to the word its store writes
//! (or to a constant row, for the dummy partner thread that writes the
//! zero register). Two periods suffice: a register written anywhere in
//! the body has the same last writer at every execution from the second
//! period on, so the second period fixes each operand's delta and the
//! first only has to agree with it — which it does when the prologue's
//! ring fill loads exactly the words a previous period would have, as
//! the scheduler's does; otherwise the strip is refused.
//!
//! **Constant rows.** Registers 0 and 1 start every strip as `0.0` and
//! `1.0`; unless a strip loads them they stay the constant registers
//! dummy threads and bias terms read. Every [`LaneMemory`] keeps one row
//! for each past its viewed words. A chain whose destination is one of
//! them (the dummy partner, "there is no way not to store the result")
//! writes that row, exactly as the scalar engine writes the register,
//! and the row is restored after the strip.
//!
//! **Refusal.** Reading operands at multiply-add time instead of load
//! time, and writing results at the end of a pair instead of at the
//! store, is only invisible when nothing observes the difference, so
//! `compile` refuses — and the plan build refuses the lane body: a
//! classic plan runs on the scalar engine, a temporal build fails —
//! whenever it cannot prove that: a store word
//! that can coincide with any word a tap reads (checked on the affine
//! intervals each operand sweeps), a tap reading a register a
//! destination overwrote or one never written, a store of anything but
//! a chain result of its own line, two results of one line that can
//! land on the same word, and the right chain's final tap reading the
//! constant row the left chain of its pair writes. Structurally, each
//! body line must be loads, then *chain pairs* of one uniform tap count
//! `K` (the two interleaved multiply-add threads of the WTL3164,
//! dummy-padded by the scheduler), then stores; the prologue must be
//! loads and nops.
//!
//! **The family.** The sweep is monomorphized over
//!
//! * **arity** — `K` as a const generic for `1..=16`, plus a dynamic
//!   *tail* slot for longer chains ([`arity_slot`]);
//! * **width class** — how a lane group's `nodes` count is chunked:
//!   16-wide chunks, 8-wide chunks, or a dynamic span for narrow groups
//!   and remainders ([`width_class`]).
//!
//! **The coefficient stream** (§4): the compiler lays coefficients out
//! in exactly the order the convolution consumes them, so the inner loop
//! never computes a coefficient address. [`StripKernels::pack_stream`]
//! reproduces that layout per lane group, and [`CoeffStreams`] caches the
//! packed buffers across executes (they depend only on the bound
//! coefficient values, so they survive result/source rebinds and are
//! invalidated only when a coefficient base moves or its words are
//! written). A strip whose coefficients never advance (literal and
//! constant pages, delta 0) streams one body period and replays it.
//! Reading coefficient rows in place from the mirror instead made the
//! nine-array 9-point statement 2.2–3.7× slower per step (literal
//! coefficients: no change), so the stream stays.
//!
//! **Bit-identity is the hard gate.** A kernel reassociates nothing: per
//! lane, each chain's taps execute in exactly the scalar engine's order
//! (`Start` is a separate IEEE multiply and add, `Chain` accumulates
//! with a separate multiply and add), and lanes never interact, so
//! chunked execution is observationally identical to running the strip
//! on each node in turn. Every lockstep step is a kernelized one:
//! `cmcc-obs` counts both `lockstep_steps` and `kernelized_steps`.

use crate::config::FPU_REGISTERS;
use crate::exec::{ResolvedOp, ResolvedPart, ResolvedStrip, StripRun};
use crate::isa::{MacAcc, Reg};
use crate::lane::LaneMemory;

/// Arity slots in the kernel family: slot `k` for exact chain length
/// `k` in `1..=16`, slot `0` for the dynamic tail (`K > 16`).
pub const ARITY_SLOTS: usize = 17;

/// Width classes in the kernel family: 16-wide chunks, 8-wide chunks,
/// and the dynamic span path.
pub const WIDTH_CLASSES: usize = 3;

/// Total monomorphized kernel variants (`ARITY_SLOTS × WIDTH_CLASSES`).
pub const KERNEL_VARIANTS: usize = ARITY_SLOTS * WIDTH_CLASSES;

/// Longest chain with its own fully unrolled arity slot; longer chains
/// share the dynamic-tail slot.
pub const MAX_UNROLLED_ARITY: usize = 16;

/// Upper bound on a dynamic span: remainders of 16-chunking (< 16),
/// remainders of 8-chunking (< 8), and whole narrow groups (< 8).
const MAX_SPAN: usize = 16;

/// Operand slots that lead each chain pair's run in a line's operand
/// map: the left and right `Start` addends, then the left and right
/// result rows. The pair's `2K` data rows follow in source order (left
/// and right interleaved, as the two threads issue them).
const PAIR_HEAD: usize = 4;

// The hit table in cmcc-obs must be able to hold every variant id.
const _: () = assert!(KERNEL_VARIANTS <= cmcc_obs::KERNEL_VARIANT_CAP);

/// Serializes tests that flip or read the process-global telemetry, so
/// their deltas cannot interleave.
#[cfg(test)]
static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The arity slot for chain length `k`: `k` itself when `1 <= k <= 16`,
/// else the shared dynamic-tail slot `0`.
pub fn arity_slot(k: usize) -> usize {
    if (1..=MAX_UNROLLED_ARITY).contains(&k) {
        k
    } else {
        0
    }
}

/// The width class a lane group of `nodes` lanes dispatches to:
/// `0` = 16-wide chunks, `1` = 8-wide chunks, `2` = dynamic span.
pub fn width_class(nodes: usize) -> usize {
    if nodes >= 16 {
        0
    } else if nodes >= 8 {
        1
    } else {
        2
    }
}

/// The flat variant id for a (width class, arity slot) pair — the id
/// recorded by [`cmcc_obs::kernel_hit`].
pub fn variant_id(class: usize, k_slot: usize) -> usize {
    debug_assert!(class < WIDTH_CLASSES && k_slot < ARITY_SLOTS);
    class * ARITY_SLOTS + k_slot
}

/// The human-readable name of a kernel variant, e.g. `k09_w16` (9-tap
/// chains over 16-wide chunks) or `ktail_span` (dynamic-arity tail on
/// the dynamic span path).
///
/// # Panics
///
/// Panics if `id >= KERNEL_VARIANTS`.
pub fn variant_name(id: usize) -> String {
    assert!(id < KERNEL_VARIANTS, "variant id {id} out of range");
    let class = ["w16", "w8", "span"][id / ARITY_SLOTS];
    match id % ARITY_SLOTS {
        0 => format!("ktail_{class}"),
        k => format!("k{k:02}_{class}"),
    }
}

/// Where an operand or a chain result lives at each execution of its
/// pattern line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// Lane word `word + j·delta` at the line's `j`-th execution.
    Word { word: i64, delta: i64 },
    /// Constant register `Reg(c)`'s row past the viewed words.
    Const(u8),
}

impl Row {
    /// The lane words this row sweeps over `occ` executions, as an
    /// inclusive interval (`None` for a constant row).
    fn hull(self, occ: usize) -> Option<(i64, i64)> {
        match self {
            Row::Word { word, delta } => {
                let last = word + (occ as i64 - 1) * delta;
                Some((word.min(last), word.max(last)))
            }
            Row::Const(_) => None,
        }
    }
}

/// What a register holds while `compile` replays a strip.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    /// Never written (registers 0 and 1 start as their constant rows).
    Unset,
    /// The row a multiply-add reading the register reads: a loaded lane
    /// word, with the per-execution delta of its load, or the constant
    /// row of register 0 or 1 (a chain destination naming the register
    /// writes the row, so the register keeps it).
    Row(Row),
    /// Chain `chain`'s result in line `line`.
    Chain { line: usize, chain: usize },
}

impl Held {
    /// The row a multiply-add reading this register reads, or `None` if
    /// no row holds the value it would see.
    fn operand(self) -> Option<Row> {
        match self {
            Held::Row(row) => Some(row),
            Held::Unset | Held::Chain { .. } => None,
        }
    }
}

/// Records `got` as the slot's row at execution `j` of its line: the
/// first execution sets it, the second must agree — the same constant
/// row, or a word one delta further on (the delta of the register's
/// writer, which every later execution shares).
fn fit(slot: &mut Option<Row>, got: Row, j: i64) -> Option<()> {
    *slot = match (*slot, got) {
        (None, _) if j == 0 => Some(got),
        (Some(Row::Const(a)), Row::Const(b)) if j == 1 && a == b => Some(got),
        (Some(Row::Word { word, .. }), Row::Word { word: next, delta })
            if j == 1 && next - word == delta =>
        {
            Some(Row::Word { word, delta })
        }
        _ => return None,
    };
    Some(())
}

/// A [`Row`] resolved against one lane group: the flat offset into the
/// group's mirror at the first execution, advanced by `step` per
/// execution.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Op {
    off: isize,
    step: isize,
}

impl Op {
    /// The flat offset at execution `j`.
    #[inline(always)]
    fn at(self, j: isize) -> usize {
        (self.off + j * self.step) as usize
    }
}

/// One kernelized strip's operand map bound to one lane group: every
/// row resolved against the group's lane count and mirror size — built
/// once per group shape and direction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OperandMap {
    nodes: usize,
    floats: usize,
    /// Per body pattern, the operand map as flat offsets.
    ops: Vec<Vec<Op>>,
}

/// The strip sweep: monomorphized over arity (`K`, `0` = dynamic) and
/// chunk width (`CHUNK`, `0` = dynamic span). Runs every line of the
/// strip over the group's mirror (`&mut [f32]`, constant rows included)
/// from the bound operand map and the packed coefficient stream.
type SweepFn = fn(&StripKernels, &[Vec<Op>], &mut [f32], &[f32], usize);

/// A strip compiled against the kernel family: the resolved operand map
/// the lockstep engine sweeps.
#[derive(Debug, Clone)]
pub struct StripKernels {
    /// Per body pattern, `PAIR_HEAD + 2K` rows per chain pair.
    ops: Vec<Vec<Row>>,
    /// Per body pattern, each tap's coefficient lane word and
    /// per-execution delta, in source order.
    coeffs: Vec<Vec<(usize, i64)>>,
    lines: usize,
    /// Lines the packed coefficient stream covers before [`Self::run`]
    /// rewinds it: one body period when no tap advances, else `lines`.
    stream_lines: usize,
    k: usize,
    k_slot: usize,
    steps: u64,
    /// The counters the scalar engine reports for the strip.
    counts: StripRun,
    /// Whether some chain writes a constant register's row.
    writes_consts: bool,
    /// The selected sweep per width class (groups of one plan can differ
    /// in lane count after a thread split).
    fns: [SweepFn; WIDTH_CLASSES],
}

impl StripKernels {
    /// Classifies `strip` against the kernel family and resolves its
    /// operand map, or returns `None` — the strip has no lockstep form —
    /// when it does not fit the family or its operands cannot be proven
    /// to read and write what the scalar engine would (see the module
    /// docs).
    pub fn compile(strip: &ResolvedStrip) -> Option<StripKernels> {
        compile_parts(
            strip.prologue_parts(),
            strip.body_patterns(),
            strip.lines(),
            strip.steps(),
        )
    }

    /// Chain length of this strip's pairs.
    pub fn arity(&self) -> usize {
        self.k
    }

    /// The arity slot dispatched to (`0` = dynamic tail).
    pub fn k_slot(&self) -> usize {
        self.k_slot
    }

    /// Dynamic steps the strip's operation stream holds — what the
    /// `lockstep_steps` and `kernelized_steps` counters add per run.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Words of coefficient stream [`Self::pack_stream`] emits for an
    /// `n`-lane group: one `n`-wide lane row per tap per streamed line —
    /// every executed line, or a single body period when no tap of the
    /// strip advances.
    pub fn stream_words(&self, n: usize) -> usize {
        let period = self.coeffs.len();
        (0..self.stream_lines)
            .map(|i| self.coeffs[i % period].len())
            .sum::<usize>()
            * n
    }

    /// Packs this strip's coefficient stream for one lane group: each
    /// tap's coefficient lane row, in exactly the order the sweep
    /// consumes them — the paper's §4 layout discipline, where the
    /// coefficients stream past the FPU in access order and the inner
    /// loop never forms a coefficient address. The stream is a pure
    /// function of the bound coefficient values, so callers may reuse
    /// it across executes until a coefficient binding or its words
    /// change (see [`CoeffStreams`]).
    ///
    /// A strip whose taps all have delta 0 — every coefficient a literal
    /// or constant page word, like the CM-2's constant-page operands whose
    /// address never advances — reads the same rows every period, so its
    /// stream holds one period and `run` replays it. Any advancing tap
    /// (a named coefficient array), or a seam-split strip with one body
    /// pattern per line, streams every line.
    pub fn pack_stream(&self, lanes: &LaneMemory, out: &mut Vec<f32>) {
        let period = self.coeffs.len();
        out.clear();
        out.reserve(self.stream_words(lanes.nodes()));
        for line in 0..self.stream_lines {
            let j = (line / period) as i64;
            for &(word, delta) in &self.coeffs[line % period] {
                out.extend_from_slice(lanes.word((word as i64 + j * delta) as usize));
            }
        }
    }

    /// This strip's kernels with the lane words of two equal-length
    /// ranges, starting at words `a` and `b`, exchanged: the kernels of
    /// the same node schedule translated through a view in which those
    /// two ranges trade lane words (the view the tests build with
    /// `LaneView::swapped`).
    /// Every refusal check `compile` made is preserved — the exchange is
    /// a bijection on lane words that keeps each range's interior order
    /// — so the strip is not classified again. Coefficient words are
    /// left in place, so one packed stream serves both.
    ///
    /// # Panics
    ///
    /// Panics if an operand sweep straddles a swapped range's edge or a
    /// coefficient word lies in either range.
    pub fn with_ranges_swapped(&self, a: usize, b: usize, len: usize) -> StripKernels {
        let (a, b, len) = (a as i64, b as i64, len as i64);
        let inside = |w: i64, base: i64| (base..base + len).contains(&w);
        let period = self.ops.len();
        let ops = self
            .ops
            .iter()
            .enumerate()
            .map(|(p, rows)| {
                let occ = (self.lines - p).div_ceil(period);
                rows.iter()
                    .map(|&row| {
                        let Row::Word { word, delta } = row else {
                            return row;
                        };
                        let (lo, hi) = row.hull(occ).expect("word rows have a hull");
                        let shift = if inside(word, a) {
                            b - a
                        } else if inside(word, b) {
                            a - b
                        } else {
                            0
                        };
                        assert!(
                            inside(lo, a) == inside(hi, a) && inside(lo, b) == inside(hi, b),
                            "an operand sweep straddles a swapped range"
                        );
                        Row::Word {
                            word: word + shift,
                            delta,
                        }
                    })
                    .collect()
            })
            .collect();
        assert!(
            self.coeffs
                .iter()
                .flatten()
                .all(|&(w, _)| !inside(w as i64, a) && !inside(w as i64, b)),
            "a coefficient word lies in a swapped range"
        );
        StripKernels {
            ops,
            ..self.clone()
        }
    }

    /// Resolves every operand row to a flat offset into `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if an operand sweeps outside the group's viewed words.
    pub(crate) fn map_operands(&self, lanes: &LaneMemory) -> OperandMap {
        let n = lanes.nodes() as isize;
        let viewed = lanes.const_row(Reg::ZERO) as isize;
        let period = self.ops.len();
        let ops = self
            .ops
            .iter()
            .enumerate()
            .map(|(p, rows)| {
                let occ = (self.lines - p).div_ceil(period);
                rows.iter()
                    .map(|&row| match row {
                        Row::Word { word, delta } => {
                            let (lo, hi) = row.hull(occ).expect("word rows have a hull");
                            assert!(
                                lo >= 0 && (hi as isize + 1) * n <= viewed,
                                "kernel operand outside the lane mirror's viewed words"
                            );
                            Op {
                                off: word as isize * n,
                                step: delta as isize * n,
                            }
                        }
                        Row::Const(c) => Op {
                            off: lanes.const_row(Reg(c)) as isize,
                            step: 0,
                        },
                    })
                    .collect()
            })
            .collect();
        OperandMap {
            nodes: lanes.nodes(),
            floats: lanes.len(),
            ops,
        }
    }

    /// Sweeps the compiled strip over every lane of `lanes`, returning
    /// counters identical to what the scalar engine reports for the
    /// source strip. `map` must be this strip's operands mapped onto
    /// `lanes` ([`Self::map_operands`]), and `stream` packed for `lanes`
    /// from the current coefficient values ([`Self::pack_stream`]).
    ///
    /// # Panics
    ///
    /// Panics if `map` was resolved against a different lane group
    /// shape, or if `stream` was packed for a different strip or lane
    /// count.
    pub(crate) fn run(&self, lanes: &mut LaneMemory, map: &OperandMap, stream: &[f32]) -> StripRun {
        let n = lanes.nodes();
        assert!(
            map.nodes == n && map.floats == lanes.len(),
            "operands mapped onto a different lane group"
        );
        assert_eq!(
            stream.len(),
            self.stream_words(n),
            "coefficient stream packed for a different strip or lane count"
        );
        let class = width_class(n);
        cmcc_obs::kernel_hit(variant_id(class, self.k_slot));
        (self.fns[class])(self, &map.ops, lanes.flat_mut(), stream, n);
        if self.writes_consts {
            lanes.reset_const_rows();
        }
        self.counts
    }
}

/// [`StripKernels::compile`] over raw parts: classifies a prologue,
/// body patterns, and line count against the kernel family without
/// needing a full [`ResolvedStrip`] (the coverage harness builds
/// synthetic shapes directly).
fn compile_parts(
    prologue: &[ResolvedPart],
    patterns: &[Vec<ResolvedPart>],
    lines: usize,
    steps: u64,
) -> Option<StripKernels> {
    let period = patterns.len();
    if period == 0 || lines < period {
        return None;
    }
    let mut counts = StripRun::default();
    for part in prologue {
        match part.op {
            ResolvedOp::Load { .. } => counts.loads += 1,
            ResolvedOp::Nop => counts.nops += 1,
            _ => return None,
        }
    }
    let mut k_all = None;
    for (p, pattern) in patterns.iter().enumerate() {
        let (k, line) = classify_line(pattern)?;
        if k != 0 && *k_all.get_or_insert(k) != k {
            return None;
        }
        let occ = (lines - p).div_ceil(period) as u64;
        counts.loads += occ * line.loads;
        counts.macs += occ * line.macs;
        counts.stores += occ * line.stores;
        counts.nops += occ * line.nops;
    }
    // A strip with no MACs anywhere has nothing to kernelize.
    let k = k_all?;
    let (ops, writes_consts) = resolve_operands(prologue, patterns, k, lines)?;
    if !results_disjoint(&ops, k, lines) {
        return None;
    }
    let coeffs: Vec<Vec<(usize, i64)>> = patterns
        .iter()
        .map(|pattern| {
            pattern
                .iter()
                .filter(|part| matches!(part.op, ResolvedOp::Mac { .. }))
                .map(|part| (part.addr, part.delta))
                .collect()
        })
        .collect();
    let stationary = coeffs.iter().flatten().all(|&(_, delta)| delta == 0);
    let k_slot = arity_slot(k);
    Some(StripKernels {
        ops,
        coeffs,
        lines,
        stream_lines: if stationary { period } else { lines },
        k,
        k_slot,
        steps,
        counts,
        writes_consts,
        fns: [
            SWEEP_TABLE[0][k_slot],
            SWEEP_TABLE[1][k_slot],
            SWEEP_TABLE[2][k_slot],
        ],
    })
}

/// Checks one body line's shape — loads, then a MAC burst of chain
/// pairs, then stores (`Nop`s anywhere) — and returns its chain length
/// (`0` for a line with no MACs) and per-execution counters.
fn classify_line(pattern: &[ResolvedPart]) -> Option<(usize, StripRun)> {
    #[derive(PartialEq, PartialOrd)]
    enum Sect {
        Loads,
        Macs,
        Stores,
    }
    let mut sect = Sect::Loads;
    let mut line = StripRun::default();
    let mut taps = Vec::new();
    for part in pattern {
        match part.op {
            ResolvedOp::Nop => line.nops += 1,
            ResolvedOp::Load { .. } => {
                if sect != Sect::Loads {
                    return None;
                }
                line.loads += 1;
            }
            ResolvedOp::Mac { acc, dest, .. } => {
                if sect == Sect::Stores {
                    return None;
                }
                sect = Sect::Macs;
                taps.push((matches!(acc, MacAcc::Start(_)), dest.is_some()));
            }
            ResolvedOp::Store { .. } => {
                sect = Sect::Stores;
                line.stores += 1;
            }
        }
    }
    line.macs = taps.len() as u64;
    let k = if taps.is_empty() {
        0
    } else {
        pair_chain_length(&taps)?
    };
    Some((k, line))
}

/// Validates that a MAC burst, given as `(is Start, has destination)`
/// per tap, decomposes into chain pairs of one uniform length `K` —
/// `[Start, Start, Chain×2(K−1)]` repeated, destinations written exactly
/// by each chain's final tap — and returns `K`. The scheduler's
/// dummy-thread padding guarantees this shape for compiled kernels;
/// anything else is refused.
fn pair_chain_length(taps: &[(bool, bool)]) -> Option<usize> {
    if taps.len() < 2 || !taps.len().is_multiple_of(2) {
        return None;
    }
    // The second pair (if any) begins at the next Start after index 1.
    let k = match taps[2..].iter().position(|&(start, _)| start) {
        Some(j) if j % 2 == 0 => (j + 2) / 2,
        Some(_) => return None,
        None => taps.len() / 2,
    };
    let shaped = taps.len().is_multiple_of(2 * k)
        && taps.iter().enumerate().all(|(i, &(start, dest))| {
            start == (i % (2 * k) < 2) && dest == (i % (2 * k) >= 2 * k - 2)
        });
    shaped.then_some(k)
}

/// Replays the prologue and at most two body periods over what each
/// register holds, resolving every slot of every line's operand map (see
/// the module docs). Returns the map and whether a chain writes a
/// constant row, or `None` when some operand or result has no row the
/// sweep could read or write in the scalar engine's stead.
fn resolve_operands(
    prologue: &[ResolvedPart],
    patterns: &[Vec<ResolvedPart>],
    k: usize,
    lines: usize,
) -> Option<(Vec<Vec<Row>>, bool)> {
    let period = patterns.len();
    let mut regs = [Held::Unset; FPU_REGISTERS];
    for reg in [Reg::ZERO, Reg::ONE] {
        regs[reg.0 as usize] = Held::Row(Row::Const(reg.0));
    }
    for part in prologue {
        if let ResolvedOp::Load { dest } = part.op {
            *regs.get_mut(dest.0 as usize)? = Held::Row(Row::Word {
                word: part.addr as i64,
                delta: 0,
            });
        }
    }
    let width = PAIR_HEAD + 2 * k;
    let mut map: Vec<Vec<Option<Row>>> = patterns
        .iter()
        .map(|pattern| {
            let taps = pattern
                .iter()
                .filter(|part| matches!(part.op, ResolvedOp::Mac { .. }))
                .count();
            vec![None; taps / (2 * k) * width]
        })
        .collect();
    let mut results: Vec<Option<Row>> = Vec::new();
    let mut writes_consts = false;
    for line in 0..lines.min(2 * period) {
        let (p, j) = (line % period, (line / period) as i64);
        let slots = &mut map[p];
        results.clear();
        results.resize(slots.len() / width * 2, None);
        // The tap's pair and its position within the pair's 2K taps.
        let (mut pair, mut within) = (0, 0);
        for part in &patterns[p] {
            let word = part.addr as i64 + j * part.delta;
            match part.op {
                ResolvedOp::Nop => {}
                ResolvedOp::Load { dest } => {
                    *regs.get_mut(dest.0 as usize)? = Held::Row(Row::Word {
                        word,
                        delta: part.delta,
                    });
                }
                ResolvedOp::Mac { data, acc, dest } => {
                    let side = within % 2;
                    let head = pair * width;
                    let data = regs.get(data.0 as usize)?.operand()?;
                    fit(&mut slots[head + PAIR_HEAD + within], data, j)?;
                    let addend = match acc {
                        MacAcc::Start(reg) => {
                            let addend = regs.get(reg.0 as usize)?.operand()?;
                            fit(&mut slots[head + side], addend, j)?;
                            Some(addend)
                        }
                        MacAcc::Chain => None,
                    };
                    // The sweep writes both results after the right
                    // chain's final tap; the scalar engine writes the left
                    // one before it. A register is caught by its `Chain`
                    // state, a constant row only here.
                    if within == 2 * k - 1 {
                        if let Some(left @ Row::Const(_)) = results[2 * pair] {
                            if data == left || addend == Some(left) {
                                return None;
                            }
                        }
                    }
                    if let Some(dest) = dest {
                        let chain = 2 * pair + side;
                        let held = regs.get_mut(dest.0 as usize)?;
                        match *held {
                            Held::Row(row @ Row::Const(_)) => {
                                results[chain] = Some(row);
                                writes_consts = true;
                            }
                            _ => *held = Held::Chain { line, chain },
                        }
                    }
                    within += 1;
                    if within == 2 * k {
                        (pair, within) = (pair + 1, 0);
                    }
                }
                ResolvedOp::Store { src } => match *regs.get(src.0 as usize)? {
                    Held::Chain { line: at, chain } if at == line && results[chain].is_none() => {
                        results[chain] = Some(Row::Word {
                            word,
                            delta: part.delta,
                        });
                    }
                    _ => return None,
                },
            }
        }
        for (chain, &result) in results.iter().enumerate() {
            fit(&mut slots[chain / 2 * width + 2 + chain % 2], result?, j)?;
        }
    }
    let ops = map
        .into_iter()
        .map(|slots| slots.into_iter().collect())
        .collect::<Option<_>>()?;
    Some((ops, writes_consts))
}

/// Whether the direct sweep's writes stay invisible to its reads: no
/// result word can coincide with any word a data or addend operand
/// reads (each row's affine sweep over its line's executions, compared
/// as intervals), and no two results of one line can land on the same
/// word (the sweep writes them in pair order, the scalar engine in store
/// order).
fn results_disjoint(ops: &[Vec<Row>], k: usize, lines: usize) -> bool {
    let period = ops.len();
    let width = PAIR_HEAD + 2 * k;
    // Every word row's hull, tagged as a result (store) or a read.
    let hulls = || {
        ops.iter().enumerate().flat_map(move |(p, rows)| {
            let occ = (lines - p).div_ceil(period);
            rows.iter().enumerate().filter_map(move |(i, row)| {
                let result = (2..PAIR_HEAD).contains(&(i % width));
                row.hull(occ).map(|hull| (result, hull))
            })
        })
    };
    for (p, rows) in ops.iter().enumerate() {
        // Results of one line, pairwise: equal deltas keep a constant
        // distance, anything else must not share a word at all.
        let occ = (lines - p).div_ceil(period);
        let result = |i: usize| rows[i / 2 * width + 2 + i % 2];
        let results = rows.len() / width * 2;
        for i in 0..results {
            for j in i + 1..results {
                let apart = match (result(i), result(j)) {
                    (Row::Word { word, delta }, Row::Word { word: w, delta: d }) if delta == d => {
                        word != w
                    }
                    (a, b) => match (a.hull(occ), b.hull(occ)) {
                        (Some((lo, hi)), Some((l, h))) => hi < l || h < lo,
                        _ => true,
                    },
                };
                if !apart {
                    return false;
                }
            }
        }
    }
    // Usually the reads sit in other buffers than the results, so their
    // overall spans are already apart; only overlapping spans need the
    // read intervals sorted and merged.
    let (mut reads, mut writes) = ((i64::MAX, i64::MIN), (i64::MAX, i64::MIN));
    for (result, (lo, hi)) in hulls() {
        let span = if result { &mut writes } else { &mut reads };
        *span = (span.0.min(lo), span.1.max(hi));
    }
    if writes.1 < reads.0 || reads.1 < writes.0 {
        return true;
    }
    let mut reads: Vec<(i64, i64)> = hulls()
        .filter_map(|(result, hull)| (!result).then_some(hull))
        .collect();
    reads.sort_unstable();
    let mut merged: Vec<(i64, i64)> = Vec::with_capacity(reads.len());
    for (lo, hi) in reads {
        match merged.last_mut() {
            Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    hulls()
        .filter_map(|(result, hull)| result.then_some(hull))
        .all(|(lo, hi)| {
            let i = merged.partition_point(|&(_, end)| end < lo);
            merged.get(i).is_none_or(|&(start, _)| start > hi)
        })
}

/// One `Start` tap over a run of lanes: `acc = coeff·data + addend`,
/// separate IEEE multiply and add, never fused — the scalar engine's
/// exact arithmetic.
#[inline(always)]
fn start_tap(coeff: &[f32], data: &[f32], addend: &[f32], acc: &mut [f32]) {
    for (((acc, &c), &d), &a) in acc.iter_mut().zip(coeff).zip(data).zip(addend) {
        *acc = c * d + a;
    }
}

/// One `Chain` tap over a run of lanes: `acc += coeff·data`, separate
/// multiply and add.
#[inline(always)]
fn chain_tap(coeff: &[f32], data: &[f32], acc: &mut [f32]) {
    for ((acc, &c), &d) in acc.iter_mut().zip(coeff).zip(data) {
        *acc += c * d;
    }
}

/// One chain pair over lanes `[base, base + span)` at execution `j`
/// (`span <= W`; callers pass `span == W` for the fixed-width windows,
/// which inlining turns into fixed trip counts): both chains accumulate
/// in local arrays, taps interleaved in source order so each lane sees
/// exactly the scalar engine's operation order, operands read straight
/// from the mirror (one window per row, bounds checked once) and
/// coefficients from the pair's stream slab (one `n`-wide row per tap),
/// and both results written to their rows at the end — left, then right.
/// Lanes never interact, so cutting a row into windows re-orders nothing
/// a lane can observe.
#[inline(always)]
fn pair_lanes<const K: usize, const W: usize>(
    pair: &[Op],
    coeffs: &[f32],
    mem: &mut [f32],
    (j, n): (isize, usize),
    (base, span): (usize, usize),
) {
    debug_assert!(span <= W);
    let kk = if K == 0 {
        (pair.len() - PAIR_HEAD) / 2
    } else {
        K
    };
    let data = &pair[PAIR_HEAD..PAIR_HEAD + 2 * kk];
    let mut acc = [[0.0f32; W]; 2];
    {
        let mem = &*mem;
        let row = |op: Op| &mem[op.at(j) + base..][..span];
        let coeff = |r: usize| &coeffs[r * n + base..][..span];
        for (side, acc) in acc.iter_mut().enumerate() {
            start_tap(coeff(side), row(data[side]), row(pair[side]), acc);
        }
        for t in 1..kk {
            for (side, acc) in acc.iter_mut().enumerate() {
                let r = 2 * t + side;
                chain_tap(coeff(r), row(data[r]), acc);
            }
        }
    }
    for (side, acc) in acc.iter().enumerate() {
        mem[pair[2 + side].at(j) + base..][..span].copy_from_slice(&acc[..span]);
    }
}

/// The whole strip, one line after another: each chain pair sweeps the
/// group's lanes in `CHUNK`-wide windows while they fit and a dynamic
/// span for the remainder (or everything, when `CHUNK == 0`), reading
/// its coefficients from the stream, which rewinds every `stream_lines`
/// lines.
fn sweep<const K: usize, const CHUNK: usize>(
    sk: &StripKernels,
    ops: &[Vec<Op>],
    mem: &mut [f32],
    stream: &[f32],
    n: usize,
) {
    let kk = if K == 0 { sk.k } else { K };
    let slab = 2 * kk * n;
    let period = ops.len();
    let rewinds = sk.stream_lines == period;
    let (mut p, mut j, mut pos) = (0, 0, 0);
    for _ in 0..sk.lines {
        for pair in ops[p].chunks_exact(PAIR_HEAD + 2 * kk) {
            let coeffs = &stream[pos..pos + slab];
            let mut base = 0;
            if CHUNK > 0 {
                while base + CHUNK <= n {
                    pair_lanes::<K, CHUNK>(pair, coeffs, mem, (j, n), (base, CHUNK));
                    base += CHUNK;
                }
            }
            if base < n {
                pair_lanes::<K, MAX_SPAN>(pair, coeffs, mem, (j, n), (base, n - base));
            }
            pos += slab;
        }
        p += 1;
        if p == period {
            (p, j) = (0, j + 1);
            if rewinds {
                pos = 0;
            }
        }
    }
}

/// One width class's row of the dispatch table, arity slot 0 (dynamic
/// tail) through 16.
const fn sweep_row<const CHUNK: usize>() -> [SweepFn; ARITY_SLOTS] {
    [
        sweep::<0, CHUNK>,
        sweep::<1, CHUNK>,
        sweep::<2, CHUNK>,
        sweep::<3, CHUNK>,
        sweep::<4, CHUNK>,
        sweep::<5, CHUNK>,
        sweep::<6, CHUNK>,
        sweep::<7, CHUNK>,
        sweep::<8, CHUNK>,
        sweep::<9, CHUNK>,
        sweep::<10, CHUNK>,
        sweep::<11, CHUNK>,
        sweep::<12, CHUNK>,
        sweep::<13, CHUNK>,
        sweep::<14, CHUNK>,
        sweep::<15, CHUNK>,
        sweep::<16, CHUNK>,
    ]
}

/// The full monomorphized family: width class (16-chunk, 8-chunk, span)
/// × arity slot.
static SWEEP_TABLE: [[SweepFn; ARITY_SLOTS]; WIDTH_CLASSES] =
    [sweep_row::<16>(), sweep_row::<8>(), sweep_row::<0>()];

/// One plan step's kernels bound to each of its lane groups: per
/// direction, each strip's operand map per group, and per group each
/// strip's packed coefficient stream.
///
/// A plan runs its schedule in one or two *directions* (the same node
/// schedule translated with two buffers' lane words swapped), whose
/// operands differ and whose coefficients do not. So the operand maps are
/// keyed by direction and built the first time a direction runs on a
/// group shape, and one set of streams serves every direction: a
/// direction flip never repacks a stream. Everything is rebuilt when the
/// group shapes change (thread splits, a differently sized mirror). The
/// streams are a pure function of the bound coefficient *values*, so a
/// holder keeps them valid across executes — including result/source
/// rebinds — and calls [`Self::invalidate`] exactly when a coefficient
/// binding moves or its words are written; the next run repacks them.
#[derive(Debug, Clone, Default)]
pub struct CoeffStreams {
    /// `maps[dir][g][s]`: strip `s`'s operands in direction `dir` on
    /// lane group `g`; empty for a direction not run on these shapes.
    maps: Vec<Vec<Vec<OperandMap>>>,
    /// `streams[g][s]`: strip `s`'s packed coefficients for group `g`.
    streams: Vec<Vec<Vec<f32>>>,
    /// `(nodes, floats)` per group the maps and streams were built for.
    shapes: Vec<(usize, usize)>,
    strips: usize,
    valid: bool,
}

impl CoeffStreams {
    /// An empty, invalid cache: the first run binds and packs it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached streams; the next run repacks them from the lane
    /// mirror's then-current coefficient values.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Maps direction `dir`'s operands unless it already ran on exactly
    /// these kernel and group shapes, and packs the streams unless they
    /// are valid for them.
    fn ensure(&mut self, dir: usize, kernels: &[StripKernels], groups: &[LaneMemory]) {
        let shaped = self.strips == kernels.len()
            && self.shapes.len() == groups.len()
            && self
                .shapes
                .iter()
                .zip(groups)
                .all(|(&(nodes, floats), lanes)| nodes == lanes.nodes() && floats == lanes.len());
        if !shaped {
            self.maps.clear();
            self.shapes = groups.iter().map(|g| (g.nodes(), g.len())).collect();
            self.streams = vec![vec![Vec::new(); kernels.len()]; groups.len()];
            self.strips = kernels.len();
            self.valid = false;
        }
        if !self.valid {
            for (bound, lanes) in self.streams.iter_mut().zip(groups) {
                for (stream, k) in bound.iter_mut().zip(kernels) {
                    k.pack_stream(lanes, stream);
                }
            }
            self.valid = true;
        }
        if self.maps.len() <= dir {
            self.maps.resize_with(dir + 1, Vec::new);
        }
        if self.maps[dir].is_empty() {
            self.maps[dir] = groups
                .iter()
                .map(|lanes| kernels.iter().map(|k| k.map_operands(lanes)).collect())
                .collect();
        }
    }
}

/// Sweeps every compiled strip over every lane group, one host thread
/// per group — the lockstep engine's fan-out.
///
/// Each group holds a disjoint contiguous chunk of the machine's nodes
/// (see [`crate::lane::LaneMirror`]); lanes never interact, so the groups
/// replay identical instruction streams and their [`StripRun`] counters
/// must agree. `streams` caches the operand maps (under direction `dir`,
/// see [`CoeffStreams`]) and packed coefficient streams across calls;
/// they are mapped or repacked here as needed. `lockstep_steps`,
/// `kernelized_steps` and the per-variant hit table are recorded when
/// telemetry is on. Returns the per-node counters.
///
/// # Panics
///
/// Panics if an operand lies outside a group's viewed words, if a
/// worker thread panics, or if two lane groups report different
/// counters (they replay one instruction stream, so that is a bug).
pub fn run_lockstep_groups_kernelized(
    kernels: &[StripKernels],
    streams: &mut CoeffStreams,
    dir: usize,
    groups: &mut [LaneMemory],
) -> StripRun {
    if kernels.is_empty() || groups.is_empty() {
        return StripRun::default();
    }
    if cmcc_obs::enabled() {
        let steps = kernels.iter().map(StripKernels::steps).sum();
        cmcc_obs::add(cmcc_obs::Counter::LockstepSteps, steps);
        cmcc_obs::add(cmcc_obs::Counter::KernelizedSteps, steps);
    }
    streams.ensure(dir, kernels, groups);
    let streams = &*streams;
    let run_group = |g: usize, lanes: &mut LaneMemory| {
        let mut total = StripRun::default();
        let bound = streams.maps[dir][g].iter().zip(&streams.streams[g]);
        for (k, (map, stream)) in kernels.iter().zip(bound) {
            total.absorb(&k.run(lanes, map, stream));
        }
        total
    };
    let per_group: Vec<StripRun> = if groups.len() == 1 {
        let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
        vec![run_group(0, &mut groups[0])]
    } else {
        let run_group = &run_group;
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter_mut()
                .enumerate()
                .map(|(g, group)| {
                    scope.spawn(move || {
                        let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
                        run_group(g, group)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane worker panicked"))
                .collect()
        })
    };
    let first = per_group[0];
    for other in &per_group[1..] {
        assert_eq!(
            &first, other,
            "lane groups must replay identical instruction streams"
        );
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::exec::{run_resolved_strip, ExecMode, ResolvedOp, ResolvedPart, ResolvedSlot};
    use crate::memory::NodeMemory;

    fn part(op: ResolvedOp, addr: usize, delta: i64) -> ResolvedPart {
        ResolvedPart {
            op,
            addr,
            delta,
            slot: ResolvedSlot::Fixed,
        }
    }

    fn mac(data: Reg, acc: MacAcc, dest: Option<Reg>, addr: usize, delta: i64) -> ResolvedPart {
        part(ResolvedOp::Mac { data, acc, dest }, addr, delta)
    }

    /// `Start(reg)` for a chain's first tap, `Chain` after it.
    fn acc(t: usize, start: Reg) -> MacAcc {
        if t == 0 {
            MacAcc::Start(start)
        } else {
            MacAcc::Chain
        }
    }

    /// The lane-word map of a synthetic strip: two source words, one
    /// output word pair per chain pair, then one coefficient word per
    /// tap per line (each line reads a fresh row of coefficients, so
    /// the packed stream must follow the per-line walk).
    fn coeff_base(pairs: usize) -> usize {
        2 + 2 * pairs
    }

    fn lane_words(k: usize, pairs: usize, lines: usize) -> usize {
        coeff_base(pairs) + lines * 2 * k * pairs
    }

    /// Deterministic lane-word contents, varied across both the word
    /// index and the lane.
    fn val(word: usize, lane: usize) -> f32 {
        ((word * 7 + lane * 13) % 31) as f32 * 0.0625 - 0.5
    }

    /// One classified-shape body line of `pairs` chain pairs with `k`
    /// taps per chain: loads, the MAC burst, stores. Left chains read
    /// source word 0 through `Reg(2)` and start from the loaded addend
    /// `Reg(3)` (source word 1); right chains read word 1 through
    /// `Reg(3)` and start from the constant `ONE` row.
    fn synthetic_line(k: usize, pairs: usize) -> Vec<ResolvedPart> {
        let mut parts = vec![
            part(ResolvedOp::Load { dest: Reg(2) }, 0, 0),
            part(ResolvedOp::Load { dest: Reg(3) }, 1, 0),
            part(ResolvedOp::Nop, 0, 0),
        ];
        let step = (2 * k * pairs) as i64;
        for p in 0..pairs {
            let (dest_l, dest_r) = (Reg(4 + 2 * p as u8), Reg(5 + 2 * p as u8));
            let coeff = coeff_base(pairs) + p * 2 * k;
            for t in 0..k {
                let last = t == k - 1;
                parts.push(mac(
                    Reg(2),
                    acc(t, Reg(3)),
                    last.then_some(dest_l),
                    coeff + 2 * t,
                    step,
                ));
                parts.push(mac(
                    Reg(3),
                    acc(t, Reg::ONE),
                    last.then_some(dest_r),
                    coeff + 2 * t + 1,
                    step,
                ));
            }
        }
        for p in 0..2 * pairs {
            let src = Reg(4 + p as u8);
            parts.push(part(ResolvedOp::Store { src }, 2 + p, 0));
        }
        parts
    }

    fn compile_synthetic(k: usize, pairs: usize, lines: usize) -> StripKernels {
        let patterns = vec![synthetic_line(k, pairs)];
        let steps = (patterns[0].len() * lines) as u64;
        compile_parts(&[], &patterns, lines, steps)
            .expect("synthetic line matches the classified shape")
    }

    /// A mirror of `words` words over `n` lanes filled by [`val`].
    fn filled(words: usize, n: usize) -> LaneMemory {
        let mut lanes = LaneMemory::new(words, n);
        for w in 0..words {
            for (lane, v) in lanes.word_mut(w).iter_mut().enumerate() {
                *v = val(w, lane);
            }
        }
        lanes
    }

    /// Runs a freshly bound synthetic strip and returns the lanes.
    fn run_synthetic(k: usize, pairs: usize, lines: usize, n: usize) -> LaneMemory {
        let sk = compile_synthetic(k, pairs, lines);
        let mut lanes = filled(lane_words(k, pairs, lines), n);
        let map = sk.map_operands(&lanes);
        let mut stream = Vec::new();
        sk.pack_stream(&lanes, &mut stream);
        let run = sk.run(&mut lanes, &map, &stream);
        assert_eq!(run.macs, (lines * 2 * k * pairs) as u64);
        assert_eq!(run.loads, (2 * lines) as u64);
        assert_eq!(run.stores, (2 * pairs * lines) as u64);
        assert_eq!(run.nops, lines as u64);
        lanes
    }

    /// The scalar oracle: per lane and pair, replay the exact f32
    /// operation order the scalar engine defines (separate multiply and
    /// add, chains accumulating independently, the last line's store
    /// winning).
    fn oracle(k: usize, pairs: usize, lines: usize, lane: usize, pair: usize) -> (f32, f32) {
        let a = val(0, lane);
        let b = val(1, lane);
        let (mut out_l, mut out_r) = (0.0f32, 0.0f32);
        for line in 0..lines {
            let cw = |tap: usize| {
                let word = coeff_base(pairs) + line * 2 * k * pairs + pair * 2 * k + tap;
                val(word, lane)
            };
            let mut acc_l = cw(0) * a + b;
            let mut acc_r = cw(1) * b + 1.0f32;
            for t in 1..k {
                acc_l += cw(2 * t) * a;
                acc_r += cw(2 * t + 1) * b;
            }
            out_l = acc_l;
            out_r = acc_r;
        }
        (out_l, out_r)
    }

    /// Every arity slot (1..=16 plus the dynamic tail) on every width
    /// class (16-wide, 8-wide, span) must be exercised — an unhit
    /// variant fails by name. This is the coverage gate for the whole
    /// monomorphized family; its loaded addends resolve like data
    /// operands, its right-chain addends to the `ONE` row.
    #[test]
    fn coverage_gate_every_variant_hit() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = cmcc_obs::enabled();
        cmcc_obs::set_enabled(true);
        let before = cmcc_obs::kernel_hits();
        // k = 17 exceeds MAX_UNROLLED_ARITY and lands in the tail slot;
        // n = 16 / 9 / 5 select the three width classes.
        for k in 1..=17 {
            for n in [16, 9, 5] {
                run_synthetic(k, 1, 2, n);
            }
        }
        let after = cmcc_obs::kernel_hits();
        cmcc_obs::set_enabled(was);
        for id in 0..KERNEL_VARIANTS {
            assert!(
                after[id] > before[id],
                "kernel variant {} was never dispatched by the coverage matrix",
                variant_name(id)
            );
        }
    }

    /// Synthetic strips across arities, widths (chunk seams, exact
    /// chunks, narrow spans), pair counts, and multiple advancing lines
    /// are bit-identical to the scalar oracle.
    #[test]
    fn synthetic_strips_match_scalar_oracle() {
        for k in [1, 2, 5, 9, 16, 17, 19] {
            for n in [16, 21, 9, 8, 5, 3, 1] {
                for pairs in [1, 2] {
                    let lines = 3;
                    let lanes = run_synthetic(k, pairs, lines, n);
                    for pair in 0..pairs {
                        let got_l = lanes.word(2 + 2 * pair);
                        let got_r = lanes.word(3 + 2 * pair);
                        for lane in 0..n {
                            let (want_l, want_r) = oracle(k, pairs, lines, lane, pair);
                            assert_eq!(
                                got_l[lane].to_bits(),
                                want_l.to_bits(),
                                "left chain k={k} n={n} pairs={pairs} pair={pair} lane={lane}"
                            );
                            assert_eq!(
                                got_r[lane].to_bits(),
                                want_r.to_bits(),
                                "right chain k={k} n={n} pairs={pairs} pair={pair} lane={lane}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The last MAC of `parts`, mutably.
    fn last_mac(parts: &mut [ResolvedPart]) -> &mut ResolvedPart {
        parts
            .iter_mut()
            .rev()
            .find(|p| matches!(p.op, ResolvedOp::Mac { .. }))
            .unwrap()
    }

    /// Lines that violate the classified shape are refused
    /// (`compile_parts` returns `None`), never mis-compiled.
    #[test]
    fn classifier_rejects_nonconforming_lines() {
        let compile_one = |pattern: Vec<ResolvedPart>| {
            let steps = pattern.len() as u64;
            compile_parts(&[], &[pattern], 2, steps)
        };
        // The well-formed baseline compiles.
        assert!(compile_one(synthetic_line(3, 1)).is_some());

        // A load after the MAC burst breaks the loads→MACs→stores order.
        let mut parts = synthetic_line(3, 1);
        let load = part(ResolvedOp::Load { dest: Reg(6) }, 0, 0);
        let after_macs = parts.len() - 2;
        parts.insert(after_macs, load);
        assert!(compile_one(parts).is_none(), "load after MACs must reject");

        // An odd tap count cannot pair up.
        let mut parts = synthetic_line(3, 1);
        let last = parts
            .iter()
            .rposition(|p| matches!(p.op, ResolvedOp::Mac { .. }))
            .unwrap();
        parts.remove(last);
        assert!(compile_one(parts).is_none(), "odd tap count must reject");

        // A destination on a non-final tap breaks the pair shape.
        let mut parts = synthetic_line(3, 1);
        let first_mac = parts
            .iter()
            .position(|p| matches!(p.op, ResolvedOp::Mac { .. }))
            .unwrap();
        if let ResolvedOp::Mac { dest, .. } = &mut parts[first_mac].op {
            *dest = Some(Reg(9));
        }
        assert!(
            compile_one(parts).is_none(),
            "early destination must reject"
        );

        // A missing destination on a final tap breaks the pair shape.
        let mut parts = synthetic_line(3, 1);
        if let ResolvedOp::Mac { dest, .. } = &mut last_mac(&mut parts).op {
            *dest = None;
        }
        assert!(
            compile_one(parts).is_none(),
            "missing destination must reject"
        );

        // Ragged arities across pattern lines share no kernel.
        let ragged = vec![synthetic_line(2, 1), synthetic_line(3, 1)];
        assert!(
            compile_parts(&[], &ragged, 2, 4).is_none(),
            "ragged chain lengths must reject"
        );

        // A strip with no MACs at all has nothing to kernelize.
        let io_only = vec![vec![
            part(ResolvedOp::Load { dest: Reg(2) }, 0, 0),
            part(ResolvedOp::Store { src: Reg(2) }, 1, 0),
        ]];
        assert!(compile_parts(&[], &io_only, 2, 4).is_none());

        // A prologue multiply-add has no place in the sweep.
        let prologue = [mac(Reg(2), MacAcc::Chain, None, 0, 0)];
        let body = [synthetic_line(3, 1)];
        assert!(compile_parts(&prologue, &body, 2, 4).is_none());

        // A tap reading a register nothing wrote (not ZERO or ONE).
        let mut parts = synthetic_line(3, 1);
        if let ResolvedOp::Mac { data, .. } = &mut last_mac(&mut parts).op {
            *data = Reg(20);
        }
        assert!(compile_one(parts).is_none(), "unset register must reject");

        // A store of a loaded register, not a chain result.
        let mut parts = synthetic_line(3, 1);
        let store = parts.len() - 1;
        parts[store].op = ResolvedOp::Store { src: Reg(2) };
        assert!(compile_one(parts).is_none(), "store of a load must reject");
    }

    /// Every bit of a mirror, constant rows included.
    fn all_bits(lanes: &LaneMemory) -> Vec<u32> {
        lanes.flat().iter().map(|v| v.to_bits()).collect()
    }

    /// The scalar oracle for a lane strip: each lane's viewed words in a
    /// node memory of their own — lane words are its addresses — run by
    /// the scalar engine in fast mode and copied back. The constant rows
    /// keep `0.0` / `1.0`: the scalar engine holds its constant
    /// registers in a fresh register file, never in memory.
    fn scalar_lanes(strip: &ResolvedStrip, lanes: &LaneMemory) -> (LaneMemory, StripRun) {
        let words = lanes.const_row(Reg::ZERO) / lanes.nodes();
        let cfg = MachineConfig::test_board_16();
        let mut out = lanes.clone();
        let mut run = None;
        for lane in 0..lanes.nodes() {
            let mut mem = NodeMemory::new(words);
            for w in 0..words {
                mem.write(w, lanes.lane_value(w, lane));
            }
            let lane_run = run_resolved_strip(strip, &mut mem, &cfg, ExecMode::Fast)
                .expect("fast mode reports no hazards");
            assert_eq!(
                *run.get_or_insert(lane_run),
                lane_run,
                "lanes replay one stream"
            );
            for w in 0..words {
                out.set_lane_value(w, lane, mem.read(w));
            }
        }
        (out, run.expect("lane memory has a lane"))
    }

    /// Sweeps `kernel`, compiled from `strip`, over a copy of `lanes`
    /// through [`run_lockstep_groups_kernelized`] and asserts identical
    /// bits — constant rows included — and counters to the scalar engine
    /// running `strip` on every lane ([`scalar_lanes`]). Returns the
    /// `kernelized_steps` the sweep recorded, which must equal its
    /// `lockstep_steps`. Callers hold [`OBS_TEST_LOCK`]: the run adds to
    /// the step counters, which other tests read process-wide while
    /// telemetry is on.
    fn assert_kernels_match_scalar(
        strip: &ResolvedStrip,
        kernel: &StripKernels,
        streams: &mut CoeffStreams,
        lanes: &LaneMemory,
    ) -> u64 {
        let mut kern = vec![lanes.clone()];
        let before = cmcc_obs::thread_snapshot();
        let kern_run =
            run_lockstep_groups_kernelized(std::slice::from_ref(kernel), streams, 0, &mut kern);
        let delta = cmcc_obs::thread_snapshot().delta(&before);
        let (scalar, scalar_run) = scalar_lanes(strip, lanes);
        assert_eq!(kern_run, scalar_run, "counters diverge");
        assert_eq!(
            all_bits(&kern[0]),
            all_bits(&scalar),
            "kernels diverge from the scalar engine"
        );
        let kernelized = delta.get(cmcc_obs::Counter::KernelizedSteps);
        assert_eq!(delta.get(cmcc_obs::Counter::LockstepSteps), kernelized);
        kernelized
    }

    /// Asserts the classifier's verdict on `strip` and, when it
    /// compiles, that its kernels match the scalar engine bit for bit on
    /// every width class, every step counted as kernelized.
    fn assert_verdict(strip: &ResolvedStrip, words: usize, kernelizes: bool, what: &str) {
        let kernel = StripKernels::compile(strip);
        assert_eq!(kernel.is_some(), kernelizes, "{what}: classifier verdict");
        let Some(kernel) = kernel else {
            return;
        };
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = cmcc_obs::enabled();
        cmcc_obs::set_enabled(true);
        for n in [16, 9, 5, 1] {
            let lanes = filled(words, n);
            let kernelized =
                assert_kernels_match_scalar(strip, &kernel, &mut CoeffStreams::new(), &lanes);
            assert_eq!(kernelized, strip.steps(), "{what}: kernelized steps");
        }
        cmcc_obs::set_enabled(was);
    }

    /// Strips where reading operands at multiply-add time or writing
    /// results at the end of a pair would be observable are refused;
    /// the ones admitted match the scalar engine bit for bit.
    #[test]
    fn observable_reorderings_are_refused() {
        let (k, lines) = (2, 3);
        let words = lane_words(k, 2, lines);
        let strip = |pattern: Vec<ResolvedPart>| {
            ResolvedStrip::from_parts(Vec::new(), vec![pattern], lines)
        };
        assert_verdict(&strip(synthetic_line(k, 2)), words, true, "baseline");

        // Reads on both sides of the results overlap them as spans but
        // not as intervals: the merged-interval check still admits it.
        let mut parts = synthetic_line(k, 2);
        parts[1].addr = words - 1;
        assert_verdict(&strip(parts), words, true, "reads around the results");

        // The first pair's left result stored onto word 1, which the
        // second pair's taps read through `Reg(3)`, loaded before it.
        let mut parts = synthetic_line(k, 2);
        let first_store = parts.len() - 4;
        parts[first_store].addr = 1;
        assert_verdict(&strip(parts), words, false, "store onto a loaded word");

        // The second pair's left data register is the first pair's left
        // destination: it holds a chain result, not a loaded word.
        let mut parts = synthetic_line(k, 2);
        let second_pair = parts
            .iter()
            .position(|p| {
                matches!(
                    p.op,
                    ResolvedOp::Mac {
                        acc: MacAcc::Start(_),
                        ..
                    }
                )
            })
            .unwrap()
            + 2 * k;
        if let ResolvedOp::Mac { data, .. } = &mut parts[second_pair].op {
            *data = Reg(4);
        }
        assert_verdict(
            &strip(parts),
            words,
            false,
            "read of an overwritten register",
        );

        // The right chain's final tap reads the left chain's destination,
        // written before it by the scalar engine, after it in the sweep.
        let mut parts = synthetic_line(k, 1);
        if let ResolvedOp::Mac { data, .. } = &mut last_mac(&mut parts).op {
            *data = Reg(4);
        }
        assert_verdict(&strip(parts), words, false, "dest_l hazard");

        // Two stores of one line onto one word: last store wins in the
        // scalar engine, pair order in the sweep.
        let mut parts = synthetic_line(k, 2);
        let store = parts.len() - 1;
        parts[store].addr = 2;
        assert_verdict(&strip(parts), words, false, "colliding stores");

        // The dest_l hazard through a constant row: the left chain
        // writes register 0's row and the right chain's final tap reads
        // it.
        let mut parts = synthetic_line(k, 1);
        let macs: Vec<usize> = (0..parts.len())
            .filter(|&i| matches!(parts[i].op, ResolvedOp::Mac { .. }))
            .collect();
        if let ResolvedOp::Mac { dest, .. } = &mut parts[macs[2 * k - 2]].op {
            *dest = Some(Reg::ZERO);
        }
        if let ResolvedOp::Mac { data, .. } = &mut parts[macs[2 * k - 1]].op {
            *data = Reg::ZERO;
        }
        parts.retain(|p| p.op != ResolvedOp::Store { src: Reg(4) });
        assert_verdict(&strip(parts), words, false, "dest_l hazard on a row");
    }

    /// A line with a real left chain and a dummy right partner (zero
    /// data, zero addend, destination `ZERO`, as the scheduler pads odd
    /// widths), then a pair starting from the zero register. The dummy's
    /// coefficient word is `dummy_coeff`.
    fn dummy_partner_line(k: usize, dummy_coeff: usize) -> Vec<ResolvedPart> {
        let mut parts = vec![part(ResolvedOp::Load { dest: Reg(2) }, 0, 0)];
        for t in 0..k {
            let last = t == k - 1;
            parts.push(mac(
                Reg(2),
                acc(t, Reg::ZERO),
                last.then_some(Reg(4)),
                4 + t,
                0,
            ));
            parts.push(mac(
                Reg::ZERO,
                acc(t, Reg::ZERO),
                last.then_some(Reg::ZERO),
                dummy_coeff,
                0,
            ));
        }
        for t in 0..k {
            let last = t == k - 1;
            parts.push(mac(
                Reg(2),
                acc(t, Reg::ZERO),
                last.then_some(Reg(5)),
                4 + t,
                0,
            ));
            parts.push(mac(
                Reg::ONE,
                acc(t, Reg::ZERO),
                last.then_some(Reg(6)),
                4 + k + t,
                0,
            ));
        }
        for (i, src) in [Reg(4), Reg(5), Reg(6)].into_iter().enumerate() {
            parts.push(part(ResolvedOp::Store { src }, 1 + i, 0));
        }
        parts
    }

    /// The dummy partner writes the zero register; the sweep writes the
    /// `ZERO` row in its stead, so a later `Start(ZERO)` reads exactly
    /// what the scalar engine's register holds — even when a non-finite
    /// dummy coefficient turns the "zero" into NaN — and the constant
    /// rows are back to `0.0`/`1.0` after the strip.
    #[test]
    fn dummy_partner_writes_the_zero_row_exactly() {
        let k = 3;
        let words = 4 + 2 * k + 1;
        let dummy = words - 1;
        let strip = ResolvedStrip::from_parts(Vec::new(), vec![dummy_partner_line(k, dummy)], 2);
        assert_verdict(&strip, words, true, "dummy partner");
        let kernel = StripKernels::compile(&strip).unwrap();
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for n in [16, 9, 5] {
            for coeff in [f32::NAN, f32::INFINITY, -2.0] {
                let mut lanes = filled(words, n);
                lanes.set_lane_value(dummy, n / 2, coeff);
                assert_kernels_match_scalar(&strip, &kernel, &mut CoeffStreams::new(), &lanes);
            }
        }
    }

    /// A ring-buffer strip: pattern `p` of a two-line period loads one
    /// source row into register `2 + p`, and its taps read that row and
    /// the one the *previous* line loaded — the prologue's ring fill
    /// for the first line, the other pattern's load after that. With
    /// the fill on the walk (`fill_word` one row before the first body
    /// load) every operand is affine and the strip kernelizes.
    fn ring_strip(fill_word: usize, lines: usize) -> ResolvedStrip {
        let k = 2;
        let res0 = ring_sources(lines);
        let coeff0 = res0 + 2 * lines;
        let prologue = vec![part(ResolvedOp::Load { dest: Reg(3) }, fill_word, 0)];
        let body = (0..2)
            .map(|p| {
                let (fresh, old) = (Reg(2 + p as u8), Reg(3 - p as u8));
                let mut parts = vec![part(ResolvedOp::Load { dest: fresh }, 1 + p, 2)];
                for t in 0..k {
                    let last = t == k - 1;
                    let data = if t == 0 { fresh } else { old };
                    parts.push(mac(
                        data,
                        acc(t, Reg::ZERO),
                        last.then_some(Reg(8)),
                        coeff0 + 2 * t,
                        0,
                    ));
                    parts.push(mac(
                        old,
                        acc(t, Reg::ONE),
                        last.then_some(Reg(9)),
                        coeff0 + 2 * t + 1,
                        0,
                    ));
                }
                parts.push(part(ResolvedOp::Store { src: Reg(8) }, res0 + 2 * p, 4));
                parts.push(part(ResolvedOp::Store { src: Reg(9) }, res0 + 2 * p + 1, 4));
                parts
            })
            .collect();
        ResolvedStrip::from_parts(prologue, body, lines)
    }

    /// Source words of a [`ring_strip`]: the walk reads words
    /// `0..=lines`; the rest lets an off-walk fill stay among the
    /// sources, so only the affine fit can tell it apart.
    fn ring_sources(lines: usize) -> usize {
        3 * lines + 4
    }

    /// Operands loaded on an earlier line resolve through the ring; a
    /// prologue that fills the ring off the walk is refused.
    #[test]
    fn ring_operands_resolve_across_lines() {
        for lines in [2, 3, 5, 8] {
            let words = ring_sources(lines) + 2 * lines + 4;
            assert_verdict(&ring_strip(0, lines), words, true, "ring fill on the walk");
            assert_verdict(
                &ring_strip(lines + 1, lines),
                words,
                lines <= 2,
                "ring fill off the walk",
            );
        }
    }

    /// A stream packed for a different lane count (or strip) is a hard
    /// error, not silent corruption.
    #[test]
    #[should_panic(expected = "coefficient stream")]
    fn stream_shape_mismatch_panics() {
        let sk = compile_synthetic(3, 1, 2);
        let mut lanes = filled(lane_words(3, 1, 2), 8);
        let map = sk.map_operands(&lanes);
        let mut stream = Vec::new();
        sk.pack_stream(&lanes, &mut stream);
        stream.pop();
        let _ = sk.run(&mut lanes, &map, &stream);
    }

    /// The stream of group `g`'s first strip.
    fn stream0(streams: &CoeffStreams, g: usize) -> &[f32] {
        &streams.streams[g][0]
    }

    /// Swapping two ranges' lane words commutes with the sweep: the
    /// swapped kernels run over a mirror whose two ranges trade
    /// contents leave exactly the swapped image of what the original
    /// kernels leave — on the walking strip (sources and results walk,
    /// coefficients stand still) with its source and result ranges
    /// exchanged, across width classes.
    #[test]
    fn swapped_kernels_sweep_the_swapped_mirror() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (k, period, lines) = (2, 3, 7);
        // Sources `0..lines+1`, padded to the results' length so the two
        // ranges can trade: results `res0..res0 + 2·lines`, then the
        // coefficients.
        let len = 2 * lines;
        let res0 = len;
        let coeff0 = 2 * len;
        let words = coeff0 + 2 * k * period;
        let body: Vec<Vec<ResolvedPart>> = (0..period)
            .map(|p| walking_line(p, period, k, (coeff0, res0), 0))
            .collect();
        let strip = ResolvedStrip::from_parts(Vec::new(), body, lines);
        let kernel = StripKernels::compile(&strip).expect("classified shape");
        let swapped = kernel.with_ranges_swapped(0, res0, len);
        let swap = |lanes: &LaneMemory| {
            let mut out = lanes.clone();
            for w in 0..len {
                out.word_mut(w).copy_from_slice(lanes.word(res0 + w));
                out.word_mut(res0 + w).copy_from_slice(lanes.word(w));
            }
            out
        };
        for n in [16, 9, 5] {
            let lanes = filled(words, n);
            let run = |kernel: &StripKernels, mut lanes: LaneMemory| {
                let map = kernel.map_operands(&lanes);
                let mut stream = Vec::new();
                kernel.pack_stream(&lanes, &mut stream);
                kernel.run(&mut lanes, &map, &stream);
                lanes
            };
            let direct = run(&kernel, lanes.clone());
            let through_swap = run(&swapped, swap(&lanes));
            assert_eq!(
                all_bits(&swap(&direct)),
                all_bits(&through_swap),
                "{n} lanes"
            );
        }
    }

    /// The stream cache is a snapshot: reused verbatim while valid (by
    /// design — the holder invalidates on coefficient rebinds and
    /// writes), repacked from current lane contents on `invalidate`,
    /// and rebound and repacked automatically when the group shapes
    /// change.
    #[test]
    fn coeff_streams_cache_and_invalidate() {
        let k = 2;
        let sk = compile_synthetic(k, 1, 2);
        let kernels = vec![sk];
        let words = lane_words(k, 1, 2);
        let mut groups = vec![filled(words, 8)];
        let mut streams = CoeffStreams::new();
        streams.ensure(0, &kernels, &groups);
        let first = stream0(&streams, 0).to_vec();
        assert_eq!(
            first.len(),
            kernels[0].stream_words(8),
            "stream covers every tap of every line"
        );

        // Mutate a coefficient word: a valid cache keeps the snapshot.
        groups[0].word_mut(coeff_base(1)).fill(99.0);
        streams.ensure(0, &kernels, &groups);
        assert_eq!(stream0(&streams, 0), first, "valid cache must not repack");

        // A second direction maps its own operands and shares the
        // streams: the flip repacks nothing.
        let swapped: Vec<StripKernels> = kernels
            .iter()
            .map(|k| k.with_ranges_swapped(0, 2, 2))
            .collect();
        streams.ensure(1, &swapped, &groups);
        assert_eq!(
            stream0(&streams, 0),
            first,
            "a direction flip must not repack"
        );
        assert_eq!(streams.streams.len(), 1, "one set of streams per group");
        let map = |dir: usize| streams.maps[dir][0][0].ops.clone();
        assert_ne!(map(0), map(1), "each direction maps its own operands");

        // Invalidation repacks from the mutated lanes.
        streams.invalidate();
        streams.ensure(0, &kernels, &groups);
        assert_ne!(stream0(&streams, 0), first, "invalidate must repack");
        assert_eq!(stream0(&streams, 0)[0], 99.0);

        // A different group shape rebinds even without invalidate.
        let narrow = vec![filled(words, 5)];
        streams.ensure(0, &kernels, &narrow);
        assert_eq!(
            stream0(&streams, 0).len(),
            kernels[0].stream_words(5),
            "shape change must repack for the new lane count"
        );
        assert_eq!(
            streams.maps.len(),
            1,
            "a shape change drops every direction's maps"
        );
        assert_eq!(streams.maps[0][0][0].nodes, 5);
    }

    /// Pattern `p` of a `period`-line body whose loads and stores walk
    /// one row per line while its `k`-tap chain pair reads coefficient
    /// words `coeff0 + p·2k ..` — the shape of a literal-coefficient
    /// statement when `tap_delta` is 0. Lane words: sources `0..=lines`,
    /// coefficients from `coeff0`, results from `res0` (two per line).
    fn walking_line(
        p: usize,
        period: usize,
        k: usize,
        (coeff0, res0): (usize, usize),
        tap_delta: i64,
    ) -> Vec<ResolvedPart> {
        let walk = period as i64;
        let mut parts = vec![
            part(ResolvedOp::Load { dest: Reg(2) }, p, walk),
            part(ResolvedOp::Load { dest: Reg(3) }, p + 1, walk),
        ];
        for t in 0..k {
            let last = t == k - 1;
            for (side, (data, addend, dest)) in
                [(Reg(2), Reg::ZERO, Reg(4)), (Reg(3), Reg::ONE, Reg(5))]
                    .into_iter()
                    .enumerate()
            {
                parts.push(mac(
                    data,
                    acc(t, addend),
                    last.then_some(dest),
                    coeff0 + p * 2 * k + 2 * t + side,
                    tap_delta,
                ));
            }
        }
        parts.push(part(
            ResolvedOp::Store { src: Reg(4) },
            res0 + 2 * p,
            2 * walk,
        ));
        parts.push(part(
            ResolvedOp::Store { src: Reg(5) },
            res0 + 2 * p + 1,
            2 * walk,
        ));
        parts
    }

    /// A strip whose taps all stand still streams one body period,
    /// replayed every period — even when the line count is not a
    /// multiple of it — while any advancing tap, or a seam-split
    /// strip's one-pattern-per-line body, still streams every line.
    #[test]
    fn stationary_taps_stream_one_period() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (k, period, lines) = (2, 3, 7);
        let coeff0 = lines + 1;
        let res0 = coeff0 + 2 * k * period * (lines + 1);
        let words = res0 + 2 * lines;
        let strip_with = |tap_delta: i64| {
            let mut body: Vec<Vec<ResolvedPart>> = (0..period)
                .map(|p| walking_line(p, period, k, (coeff0, res0), 0))
                .collect();
            // One advancing tap: pattern 0's first, one coefficient
            // block per occurrence.
            let first_mac = body[0]
                .iter()
                .position(|p| matches!(p.op, ResolvedOp::Mac { .. }))
                .unwrap();
            body[0][first_mac].delta = tap_delta;
            ResolvedStrip::from_parts(Vec::new(), body, lines)
        };
        let taps_per_line = 2 * k;
        for n in [16, 9, 5, 1] {
            let mut lanes = filled(words, n);

            // Case 1: every tap stationary — one period, not `lines`.
            let stationary = strip_with(0);
            let kernel = StripKernels::compile(&stationary).expect("classified shape");
            assert_eq!(kernel.stream_words(n), period * taps_per_line * n);
            let mut streams = CoeffStreams::new();
            assert_kernels_match_scalar(&stationary, &kernel, &mut streams, &lanes);
            assert_eq!(stream0(&streams, 0).len(), kernel.stream_words(n));
            // Invalidation repacks the period from the current values.
            lanes.word_mut(coeff0 + taps_per_line).fill(-3.5);
            streams.invalidate();
            assert_kernels_match_scalar(&stationary, &kernel, &mut streams, &lanes);
            assert_eq!(stream0(&streams, 0)[taps_per_line * n], -3.5);
            assert_eq!(stream0(&streams, 0).len(), kernel.stream_words(n));

            // Case 2: one advancing tap — every executed line.
            let advancing = strip_with((taps_per_line * period) as i64);
            let kernel = StripKernels::compile(&advancing).expect("classified shape");
            assert_eq!(kernel.stream_words(n), lines * taps_per_line * n);
            assert_kernels_match_scalar(&advancing, &kernel, &mut CoeffStreams::new(), &lanes);

            // Case 3: a result walk that crosses a range seam translates
            // to one delta-0 pattern per line, whose stream is every line.
            let node = strip_with(0);
            let seam = res0 + 2 * (lines / 2);
            let view = crate::lane::LaneView::new(&[
                (0, res0, false),
                (res0, seam - res0, true),
                (seam, res0 + 2 * lines - seam, true),
            ])
            .unwrap();
            let unrolled = node.translate(&view).expect("seam-split translation");
            assert_eq!(unrolled.body_patterns().len(), lines, "unrolled per line");
            let kernel = StripKernels::compile(&unrolled).expect("classified shape");
            assert_eq!(kernel.stream_words(n), lines * taps_per_line * n);
            assert_kernels_match_scalar(&unrolled, &kernel, &mut CoeffStreams::new(), &lanes);
        }
    }
}
