//! Plan-time kernel generation for the lockstep engine.
//!
//! The paper's central discipline — resolve everything shape-dependent
//! *before* the inner loop runs — stops one step short in
//! [`crate::exec::run_resolved_strip_lockstep`]: addresses are
//! pre-resolved, but every dynamic part is still dispatched through a
//! per-step `match`. This module finishes the job. At plan build time
//! [`StripKernels::compile`] classifies each lane-translated strip's MAC
//! burst into *chain pairs* of uniform tap count `K` (the two interleaved
//! multiply-add threads of the WTL3164, dummy-padded by the scheduler so
//! bursts always pair up), and selects a **monomorphized burst function**
//! from a pregenerated family:
//!
//! * **arity** — `K` as a const generic for `1..=16`, plus a dynamic
//!   *tail* slot for longer chains ([`arity_slot`]);
//! * **width class** — how a lane group's `nodes` count is chunked:
//!   16-wide fixed arrays, 8-wide fixed arrays, or a dynamic span for
//!   narrow groups and remainders ([`width_class`]).
//!
//! At execute time [`StripKernels::run`] makes one indirect call per
//! line instead of one `match` per tap, holding the accumulating chains
//! in fixed-size local arrays rather than round-tripping them through the
//! FPU's chain rows in memory.
//!
//! The second half of the paper's discipline is the **coefficient
//! stream** (§4): the compiler lays coefficients out in memory in
//! exactly the order the convolution consumes them, so the inner loop
//! never computes a coefficient address — it just advances through a
//! contiguous stream. [`StripKernels::pack_stream`] reproduces that
//! layout per lane group, [`CoeffStreams`] caches the packed buffers
//! across executes (the stream depends only on the bound coefficient
//! values, so it survives result/source rebinds and is invalidated
//! only when a coefficient base moves or the host writes node memory),
//! and the burst bodies read their taps' coefficient rows sequentially
//! from the stream instead of walking strided lane rows. A strip whose
//! coefficients never advance (literal and constant pages, delta 0)
//! streams one body period and replays it.
//!
//! **Bit-identity is the hard gate.** A kernel reassociates nothing: per
//! lane, each chain's taps execute in exactly the interpreter's order
//! (`Start` is a separate IEEE multiply and add, `Chain` accumulates
//! with a separate multiply and add), and lanes never interact, so
//! chunked execution is observationally identical to the interpreter's
//! row-at-a-time sweeps. The burst writes both finished chains back at
//! the *end* of a pair, which swaps the interpreter's order of "write
//! left destination" and "read right chain's final operands" — so the
//! classifier statically rejects the one register hazard that swap
//! could expose (see `pair_chain_length`'s doc). Any line it cannot
//! prove safe — loads after MACs, stores before MACs, unpaired or
//! ragged chains, destinations anywhere but a chain's final tap —
//! rejects the *whole strip* to the interpreter, and the split is
//! visible as `kernelized_steps` / `interpreted_steps` in `cmcc-obs`.

use crate::exec::{
    exec_lockstep, run_resolved_strip_lockstep, LaneFpu, ResolvedOp, ResolvedPart, ResolvedStrip,
    StripRun,
};
use crate::isa::MacAcc;
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

// The hit table in cmcc-obs must be able to hold every variant id.
const _: () = assert!(KERNEL_VARIANTS <= cmcc_obs::KERNEL_VARIANT_CAP);

/// Serializes tests (here and in `exec`) that flip or read the
/// process-global telemetry, so their deltas cannot interleave.
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

/// A load or store, hoisted out of the burst: executed as one contiguous
/// row copy between lane memory and the register file.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IoOp {
    addr: usize,
    delta: i64,
    reg: u8,
}

/// One multiply-add tap in classified form: everything the burst body
/// needs, with the `ResolvedOp` match already performed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MacTap {
    addr: usize,
    delta: i64,
    data: u8,
    /// `Some(addend register)` for a `Start` tap, `None` for a `Chain`.
    start: Option<u8>,
    /// Register receiving the running chain value after this tap.
    dest: Option<u8>,
}

/// One classified body line: loads, then the MAC burst as chain pairs in
/// source order (`taps[2t]` / `taps[2t+1]` are the two threads' tap `t`,
/// in blocks of `2k` per pair), then stores. `Nop`s carry no effect in
/// fast mode and are only counted.
#[derive(Debug, Clone, PartialEq)]
struct LineKernel {
    loads: Vec<IoOp>,
    taps: Vec<MacTap>,
    stores: Vec<IoOp>,
    nops: u64,
    /// Chain length of this line's pairs (`0` for a line with no MACs).
    k: usize,
}

/// A load or store resolved against one lane group: `mem` is the flat
/// f32 offset of the lane row (`word × nodes`, advanced in place by
/// `step = delta × nodes` as the line cycle walks the strip), `reg` the
/// flat offset of the register row.
#[derive(Debug, Clone, Copy)]
struct RIo {
    mem: isize,
    step: isize,
    reg: usize,
}

/// A chain tap resolved against one lane group, slimmed to the three
/// words the burst body needs: all `word × nodes` products are done at
/// resolve time, addend and destination handling is hoisted to the pair
/// level (their positions are fixed by the classified shape).
#[derive(Debug, Clone, Copy)]
struct RTap {
    /// Flat offset of the coefficient lane row (advanced by `step`).
    coeff: isize,
    step: isize,
    /// Flat offset of the data register row.
    data: usize,
}

/// One pair's register rows: the addends its two `Start` taps read and
/// the destinations written back after its two final taps.
#[derive(Debug, Clone, Copy)]
struct RPairMeta {
    addend_l: usize,
    addend_r: usize,
    dest_l: usize,
    dest_r: usize,
}

/// One body line resolved against a lane group's `nodes` count. Pair
/// `p` owns taps `[p·2k, (p+1)·2k)` and `pairs[p]`.
struct RLine {
    loads: Vec<RIo>,
    taps: Vec<RTap>,
    pairs: Vec<RPairMeta>,
    stores: Vec<RIo>,
    nops: u64,
    k: usize,
}

impl RLine {
    fn resolve(lk: &LineKernel, n: isize) -> RLine {
        let io = |io: &IoOp| RIo {
            mem: io.addr as isize * n,
            step: io.delta as isize * n,
            reg: io.reg as usize * n as usize,
        };
        let row = |reg: Option<u8>| reg.expect("classified shape") as usize * n as usize;
        let pairs = if lk.k == 0 {
            Vec::new()
        } else {
            lk.taps
                .chunks_exact(2 * lk.k)
                .map(|pair| RPairMeta {
                    addend_l: row(pair[0].start),
                    addend_r: row(pair[1].start),
                    dest_l: row(pair[2 * lk.k - 2].dest),
                    dest_r: row(pair[2 * lk.k - 1].dest),
                })
                .collect()
        };
        RLine {
            loads: lk.loads.iter().map(io).collect(),
            taps: lk
                .taps
                .iter()
                .map(|t| RTap {
                    coeff: t.addr as isize * n,
                    step: t.delta as isize * n,
                    data: t.data as usize * n as usize,
                })
                .collect(),
            pairs,
            stores: lk.stores.iter().map(io).collect(),
            nops: lk.nops,
            k: lk.k,
        }
    }

    /// Steps every lane-memory offset to the next execution of this
    /// pattern line (the interpreter's `addr + k × delta`, done
    /// incrementally).
    fn advance(&mut self) {
        for io in &mut self.loads {
            io.mem += io.step;
        }
        for t in &mut self.taps {
            t.coeff += t.step;
        }
        for io in &mut self.stores {
            io.mem += io.step;
        }
    }
}

/// The burst body: monomorphized over arity (`K`, `0` = dynamic) and
/// chunk width (`CHUNK`, `0` = dynamic span). The `&[f32]` is the
/// line's slab of the packed coefficient stream (`taps.len() × nodes`
/// words, one lane row per tap in source order).
type BurstFn = fn(&RLine, &[f32], &mut LaneFpu);

/// A strip compiled against the kernel family: the executable payload
/// [`StripKernels::run`] replays instead of interpreting the strip.
#[derive(Debug, Clone)]
pub struct StripKernels {
    prologue: Vec<ResolvedPart>,
    body: Vec<LineKernel>,
    lines: usize,
    /// Lines the packed coefficient stream covers before [`Self::run`]
    /// rewinds it: one body period when no tap advances, else `lines`.
    stream_lines: usize,
    k: usize,
    k_slot: usize,
    steps: u64,
    /// The selected burst function per width class, so dispatch at run
    /// time is one table-free indirect call (groups of one plan can
    /// differ in lane count after a thread split).
    fns: [BurstFn; WIDTH_CLASSES],
}

impl StripKernels {
    /// Classifies `strip` against the kernel family.
    ///
    /// Returns `None` — fall back to the interpreter — unless every body
    /// line is loads, then one contiguous burst of chain *pairs* with a
    /// single tap count `K` shared by every MAC-bearing line, then
    /// stores (`Nop`s may appear anywhere). The prologue is kept verbatim
    /// and replayed through the interpreter: it is a ring-fill of loads
    /// and nops in compiled kernels, and runs once per strip.
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

    /// Dynamic steps the equivalent interpreted strip would execute —
    /// kept so the `lockstep_steps` accounting is tier-independent.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Words of coefficient stream [`Self::pack_stream`] emits for an
    /// `n`-lane group: one `n`-wide lane row per tap per streamed line —
    /// every executed line, or a single body period when no tap of the
    /// strip advances.
    pub fn stream_words(&self, n: usize) -> usize {
        let period = self.body.len();
        (0..self.stream_lines)
            .map(|i| self.body[i % period].taps.len())
            .sum::<usize>()
            * n
    }

    /// Packs this strip's coefficient stream for one lane group: each
    /// tap's coefficient lane row, in exactly the order [`Self::run`]
    /// consumes them — the paper's §4 layout discipline, where the
    /// coefficients stream past the FPU in access order and the inner
    /// loop never forms a coefficient address. The stream is a pure
    /// function of the bound coefficient values, so callers may reuse
    /// it across executes until a coefficient binding or node memory
    /// changes (see [`CoeffStreams`]).
    ///
    /// A strip whose taps all have delta 0 — every coefficient a literal
    /// or constant page word, like the CM-2's constant-page operands whose
    /// address never advances — reads the same rows every period, so its
    /// stream holds one period and `run` replays it. Any advancing tap
    /// (a named coefficient array), or a seam-split strip with one body
    /// pattern per line, streams every line.
    pub fn pack_stream(&self, lanes: &LaneMemory, out: &mut Vec<f32>) {
        let n = lanes.nodes();
        out.clear();
        out.reserve(self.stream_words(n));
        let mut rlines: Vec<RLine> = self
            .body
            .iter()
            .map(|lk| RLine::resolve(lk, n as isize))
            .collect();
        let period = rlines.len();
        for line in 0..self.stream_lines {
            let rl = &mut rlines[line % period];
            for tap in &rl.taps {
                out.extend_from_slice(lanes.flat(tap.coeff as usize, n));
            }
            rl.advance();
        }
    }

    /// Executes the compiled strip over every lane of `lanes`, returning
    /// counters identical to what the interpreter would report for the
    /// source strip. `stream` must be this strip's coefficient stream
    /// over the same lanes ([`Self::pack_stream`], current with respect
    /// to the bound coefficient values).
    ///
    /// # Panics
    ///
    /// Panics if a lane-word address is out of the lane memory's bounds,
    /// or if `stream` was packed for a different shape.
    pub fn run(&self, lanes: &mut LaneMemory, stream: &[f32]) -> StripRun {
        let n = lanes.nodes();
        assert_eq!(
            stream.len(),
            self.stream_words(n),
            "coefficient stream packed for a different strip or lane count"
        );
        let mut fpu = LaneFpu::new(n);
        let mut run = StripRun::default();
        for part in &self.prologue {
            exec_lockstep::<0>(part.op, part.addr, lanes, &mut fpu, &mut run);
        }
        let class = width_class(n);
        let burst = self.fns[class];
        cmcc_obs::kernel_hit(variant_id(class, self.k_slot));
        // Resolve the body against this group's lane count: every
        // `word × nodes` product happens here, once, and the per-line
        // `addr + k × delta` walk becomes an in-place increment — the
        // burst body is left with nothing but sequential stream reads,
        // register rows, and flops.
        let mut rlines: Vec<RLine> = self
            .body
            .iter()
            .map(|lk| RLine::resolve(lk, n as isize))
            .collect();
        let period = rlines.len();
        let mut pos = 0usize;
        for line in 0..self.lines {
            if line % self.stream_lines == 0 {
                pos = 0;
            }
            let rl = &mut rlines[line % period];
            for io in &rl.loads {
                fpu.regs[io.reg..io.reg + n].copy_from_slice(lanes.flat(io.mem as usize, n));
            }
            if !rl.taps.is_empty() {
                let words = rl.taps.len() * n;
                burst(rl, &stream[pos..pos + words], &mut fpu);
                pos += words;
            }
            for io in &rl.stores {
                lanes
                    .flat_mut(io.mem as usize, n)
                    .copy_from_slice(&fpu.regs[io.reg..io.reg + n]);
            }
            run.loads += rl.loads.len() as u64;
            run.macs += rl.taps.len() as u64;
            run.stores += rl.stores.len() as u64;
            run.nops += rl.nops;
            rl.advance();
        }
        run
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
    if patterns.is_empty() || lines == 0 {
        return None;
    }
    let mut k_all = None;
    let mut body = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        let line = classify_line(pattern)?;
        if line.k != 0 {
            match k_all {
                None => k_all = Some(line.k),
                Some(k) if k == line.k => {}
                Some(_) => return None,
            }
        }
        body.push(line);
    }
    // A strip with no MACs anywhere has nothing to kernelize.
    let k = k_all?;
    let k_slot = arity_slot(k);
    let stationary = body.iter().all(|l| l.taps.iter().all(|t| t.delta == 0));
    let stream_lines = if stationary {
        body.len().min(lines)
    } else {
        lines
    };
    Some(StripKernels {
        prologue: prologue.to_vec(),
        body,
        lines,
        stream_lines,
        k,
        k_slot,
        steps,
        fns: [
            BURST_TABLE[0][k_slot],
            BURST_TABLE[1][k_slot],
            BURST_TABLE[2][k_slot],
        ],
    })
}

/// Classifies one body line, or `None` if it does not fit the family.
fn classify_line(pattern: &[ResolvedPart]) -> Option<LineKernel> {
    #[derive(PartialEq, PartialOrd)]
    enum Sect {
        Loads,
        Macs,
        Stores,
    }
    let mut sect = Sect::Loads;
    let mut loads = Vec::new();
    let mut taps = Vec::new();
    let mut stores = Vec::new();
    let mut nops = 0u64;
    for part in pattern {
        match part.op {
            ResolvedOp::Nop => nops += 1,
            ResolvedOp::Load { dest } => {
                if sect != Sect::Loads {
                    return None;
                }
                loads.push(IoOp {
                    addr: part.addr,
                    delta: part.delta,
                    reg: dest.0,
                });
            }
            ResolvedOp::Mac { data, acc, dest } => {
                if sect == Sect::Stores {
                    return None;
                }
                sect = Sect::Macs;
                taps.push(MacTap {
                    addr: part.addr,
                    delta: part.delta,
                    data: data.0,
                    start: match acc {
                        MacAcc::Start(reg) => Some(reg.0),
                        MacAcc::Chain => None,
                    },
                    dest: dest.map(|r| r.0),
                });
            }
            ResolvedOp::Store { src } => {
                sect = Sect::Stores;
                stores.push(IoOp {
                    addr: part.addr,
                    delta: part.delta,
                    reg: src.0,
                });
            }
        }
    }
    let k = match pair_chain_length(&taps) {
        Some(k) => k,
        None if taps.is_empty() => 0,
        None => return None,
    };
    Some(LineKernel {
        loads,
        taps,
        stores,
        nops,
        k,
    })
}

/// Validates that `taps` decomposes into chain pairs of one uniform
/// length `K` — `[Start, Start, Chain×2(K−1)]` repeated, destinations
/// written exactly by each chain's final tap — and returns `K`. The
/// scheduler's dummy-thread padding guarantees this shape for compiled
/// kernels; anything else falls back to the interpreter.
///
/// The burst body performs both destination writebacks *after* the
/// pair's last tap, whereas the interpreter writes the left chain's
/// destination before executing the right chain's final tap. That
/// reordering is observable only if the right chain's final tap reads
/// the register the left chain writes — so that one hazard (data for
/// any `K`, the addend too when `K == 1`) also rejects the pair.
fn pair_chain_length(taps: &[MacTap]) -> Option<usize> {
    if taps.len() < 2 || !taps.len().is_multiple_of(2) {
        return None;
    }
    // The second pair (if any) begins at the next Start after index 1.
    let next_start = taps[2..].iter().position(|t| t.start.is_some());
    let k = match next_start {
        Some(j) if j % 2 == 0 => (j + 2) / 2,
        Some(_) => return None,
        None => taps.len() / 2,
    };
    if !taps.len().is_multiple_of(2 * k) {
        return None;
    }
    for (i, tap) in taps.iter().enumerate() {
        if tap.start.is_some() != (i % (2 * k) < 2) {
            return None;
        }
        if tap.dest.is_some() != (i % (2 * k) >= 2 * k - 2) {
            return None;
        }
    }
    for pair in taps.chunks_exact(2 * k) {
        let dest_l = pair[2 * k - 2].dest?;
        let last_r = &pair[2 * k - 1];
        if last_r.data == dest_l || (k == 1 && last_r.start == Some(dest_l)) {
            return None;
        }
    }
    Some(k)
}

/// An 8-lane window of a lane or register row.
#[inline(always)]
fn row8(s: &[f32], at: usize) -> &[f32; 8] {
    s[at..at + 8].try_into().expect("8-lane sub-chunk in range")
}

/// One `Start` tap over 8 lanes: `acc = coeff·data + addend`, separate
/// IEEE multiply and add, never fused — the interpreter's exact
/// arithmetic.
#[inline(always)]
fn start_tap8(coeff: &[f32; 8], data: &[f32; 8], addend: &[f32; 8], acc: &mut [f32; 8]) {
    for i in 0..8 {
        acc[i] = coeff[i] * data[i] + addend[i];
    }
}

/// One `Chain` tap over 8 lanes: `acc += coeff·data`, separate multiply
/// and add.
#[inline(always)]
fn chain_tap8(coeff: &[f32; 8], data: &[f32; 8], acc: &mut [f32; 8]) {
    for i in 0..8 {
        acc[i] += coeff[i] * data[i];
    }
}

/// [`start_tap8`] with a run-time span width (`span <= MAX_SPAN`).
#[inline(always)]
fn start_tap_span(
    coeff: &[f32],
    data: &[f32],
    addend: &[f32],
    span: usize,
    acc: &mut [f32; MAX_SPAN],
) {
    for i in 0..span {
        acc[i] = coeff[i] * data[i] + addend[i];
    }
}

/// [`chain_tap8`] with a run-time span width (`span <= MAX_SPAN`).
#[inline(always)]
fn chain_tap_span(coeff: &[f32], data: &[f32], span: usize, acc: &mut [f32; MAX_SPAN]) {
    for i in 0..span {
        acc[i] += coeff[i] * data[i];
    }
}

/// All pairs of one line over lanes `[base, base + CHUNK)`: the two
/// chains of a pair accumulate in local arrays, taps interleaved in
/// source order so per-lane register dataflow matches the interpreter.
/// Coefficients come from the line's stream slab — one `n`-wide row per
/// tap, walked sequentially (`stream.chunks_exact` advances pair by
/// pair, `r` row by row within a pair), so the body forms no
/// coefficient addresses at all.
///
/// The chains run in 8-lane sub-blocks regardless of `CHUNK`: two
/// 8-wide accumulators plus a tap's coeff/data/addend operands fit the
/// baseline 16-register SIMD budget, where 16-wide accumulators spill
/// to the stack on every tap. Lanes never interact, so splitting the
/// chunk re-orders nothing a lane can observe — each lane still sees
/// its taps in exactly the interpreter's order.
#[inline(always)]
fn pairs_chunk<const K: usize, const CHUNK: usize>(
    line: &RLine,
    stream: &[f32],
    fpu: &mut LaneFpu,
    base: usize,
) {
    let n = fpu.nodes;
    let kk = if K == 0 { line.k } else { K };
    for ((pair, meta), coeffs) in line
        .taps
        .chunks_exact(2 * kk)
        .zip(&line.pairs)
        .zip(stream.chunks_exact(2 * kk * n))
    {
        let mut sub = 0;
        while sub < CHUNK {
            let off = base + sub;
            let mut acc_l = [0.0f32; 8];
            let mut acc_r = [0.0f32; 8];
            start_tap8(
                row8(coeffs, off),
                row8(&fpu.regs, pair[0].data + off),
                row8(&fpu.regs, meta.addend_l + off),
                &mut acc_l,
            );
            start_tap8(
                row8(coeffs, n + off),
                row8(&fpu.regs, pair[1].data + off),
                row8(&fpu.regs, meta.addend_r + off),
                &mut acc_r,
            );
            let mut r = 2 * n;
            for t in 1..kk {
                chain_tap8(
                    row8(coeffs, r + off),
                    row8(&fpu.regs, pair[2 * t].data + off),
                    &mut acc_l,
                );
                chain_tap8(
                    row8(coeffs, r + n + off),
                    row8(&fpu.regs, pair[2 * t + 1].data + off),
                    &mut acc_r,
                );
                r += 2 * n;
            }
            fpu.regs[meta.dest_l + off..meta.dest_l + off + 8].copy_from_slice(&acc_l);
            fpu.regs[meta.dest_r + off..meta.dest_r + off + 8].copy_from_slice(&acc_r);
            sub += 8;
        }
    }
}

/// [`pairs_chunk`] over a run-time span of lanes.
#[inline(always)]
fn pairs_span<const K: usize>(
    line: &RLine,
    stream: &[f32],
    fpu: &mut LaneFpu,
    base: usize,
    span: usize,
) {
    debug_assert!(span <= MAX_SPAN);
    let n = fpu.nodes;
    let kk = if K == 0 { line.k } else { K };
    for ((pair, meta), coeffs) in line
        .taps
        .chunks_exact(2 * kk)
        .zip(&line.pairs)
        .zip(stream.chunks_exact(2 * kk * n))
    {
        let mut acc_l = [0.0f32; MAX_SPAN];
        let mut acc_r = [0.0f32; MAX_SPAN];
        start_tap_span(
            &coeffs[base..base + span],
            &fpu.regs[pair[0].data + base..pair[0].data + base + span],
            &fpu.regs[meta.addend_l + base..meta.addend_l + base + span],
            span,
            &mut acc_l,
        );
        start_tap_span(
            &coeffs[n + base..n + base + span],
            &fpu.regs[pair[1].data + base..pair[1].data + base + span],
            &fpu.regs[meta.addend_r + base..meta.addend_r + base + span],
            span,
            &mut acc_r,
        );
        let mut r = 2 * n;
        for t in 1..kk {
            chain_tap_span(
                &coeffs[r + base..r + base + span],
                &fpu.regs[pair[2 * t].data + base..pair[2 * t].data + base + span],
                span,
                &mut acc_l,
            );
            chain_tap_span(
                &coeffs[r + n + base..r + n + base + span],
                &fpu.regs[pair[2 * t + 1].data + base..pair[2 * t + 1].data + base + span],
                span,
                &mut acc_r,
            );
            r += 2 * n;
        }
        fpu.regs[meta.dest_l + base..meta.dest_l + base + span].copy_from_slice(&acc_l[..span]);
        fpu.regs[meta.dest_r + base..meta.dest_r + base + span].copy_from_slice(&acc_r[..span]);
    }
}

/// One line's burst over every lane: `CHUNK`-wide bodies while they fit,
/// the span path for the remainder (or everything, when `CHUNK == 0`).
fn burst<const K: usize, const CHUNK: usize>(line: &RLine, stream: &[f32], fpu: &mut LaneFpu) {
    let n = fpu.nodes;
    if CHUNK == 0 {
        pairs_span::<K>(line, stream, fpu, 0, n);
        return;
    }
    let mut base = 0;
    while base + CHUNK <= n {
        pairs_chunk::<K, CHUNK>(line, stream, fpu, base);
        base += CHUNK;
    }
    if base < n {
        pairs_span::<K>(line, stream, fpu, base, n - base);
    }
}

/// One width class's row of the dispatch table, arity slot 0 (dynamic
/// tail) through 16.
const fn burst_row<const CHUNK: usize>() -> [BurstFn; ARITY_SLOTS] {
    [
        burst::<0, CHUNK>,
        burst::<1, CHUNK>,
        burst::<2, CHUNK>,
        burst::<3, CHUNK>,
        burst::<4, CHUNK>,
        burst::<5, CHUNK>,
        burst::<6, CHUNK>,
        burst::<7, CHUNK>,
        burst::<8, CHUNK>,
        burst::<9, CHUNK>,
        burst::<10, CHUNK>,
        burst::<11, CHUNK>,
        burst::<12, CHUNK>,
        burst::<13, CHUNK>,
        burst::<14, CHUNK>,
        burst::<15, CHUNK>,
        burst::<16, CHUNK>,
    ]
}

/// The full monomorphized family: width class (16-chunk, 8-chunk, span)
/// × arity slot.
static BURST_TABLE: [[BurstFn; ARITY_SLOTS]; WIDTH_CLASSES] =
    [burst_row::<16>(), burst_row::<8>(), burst_row::<0>()];

/// Cached packed coefficient streams for one plan: `groups[g][s]` is
/// strip `s`'s stream over lane group `g` (empty when the strip is not
/// kernelized).
///
/// The streams are a pure function of the bound coefficient *values*
/// and the group shapes, so a holder keeps them valid across executes
/// — including result/source rebinds — and calls [`Self::invalidate`]
/// exactly when a coefficient binding moves or the host writes node
/// memory. Shape changes (thread splits, retranslation changing the
/// strip count) are detected and repacked automatically.
#[derive(Debug, Clone, Default)]
pub struct CoeffStreams {
    groups: Vec<Vec<Vec<f32>>>,
    /// Lane count per group the streams were packed for.
    shape: Vec<usize>,
    strips: usize,
    valid: bool,
}

impl CoeffStreams {
    /// An empty, invalid cache: the first run packs it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached streams; the next run repacks from the lane
    /// mirror's then-current coefficient values.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Repacks every kernelized strip's stream unless the cache is
    /// valid for exactly these kernels and group shapes.
    fn ensure(&mut self, kernels: &[Option<StripKernels>], groups: &[LaneMemory]) {
        let current = self.valid
            && self.strips == kernels.len()
            && self.shape.len() == groups.len()
            && self.shape.iter().zip(groups).all(|(&n, g)| n == g.nodes());
        if current {
            return;
        }
        self.groups.resize_with(groups.len(), Vec::new);
        for (streams, lanes) in self.groups.iter_mut().zip(groups) {
            streams.resize_with(kernels.len(), Vec::new);
            for (buf, kernel) in streams.iter_mut().zip(kernels) {
                match kernel {
                    Some(k) => k.pack_stream(lanes, buf),
                    None => buf.clear(),
                }
            }
        }
        self.shape = groups.iter().map(LaneMemory::nodes).collect();
        self.strips = kernels.len();
        self.valid = true;
    }
}

/// Runs every translated strip over every lane group — the kernel-tier
/// counterpart of [`crate::exec::run_resolved_lockstep_groups`].
///
/// `kernels[i]`, when present, is the compiled form of `strips[i]`;
/// missing or `None` entries run through the interpreter (pass `&[]`
/// and a scratch [`CoeffStreams`] to disable the tier wholesale).
/// `streams` caches the packed coefficient streams across calls; it is
/// repacked here when invalidated or when the group shapes changed.
/// Besides `lockstep_steps`, the `kernelized_steps` /
/// `interpreted_steps` split and the per-variant hit table are
/// recorded when telemetry is on.
///
/// # Panics
///
/// Panics if a lane-word address is out of a group's bounds, or if a
/// worker thread panics.
pub fn run_lockstep_groups_kernelized(
    strips: &[ResolvedStrip],
    kernels: &[Option<StripKernels>],
    streams: &mut CoeffStreams,
    groups: &mut [LaneMemory],
) -> StripRun {
    if strips.is_empty() || groups.is_empty() {
        return StripRun::default();
    }
    if cmcc_obs::enabled() {
        let mut kernelized = 0u64;
        let mut interpreted = 0u64;
        for (i, strip) in strips.iter().enumerate() {
            match kernels.get(i).and_then(Option::as_ref) {
                Some(k) => kernelized += k.steps(),
                None => interpreted += strip.steps(),
            }
        }
        cmcc_obs::add(cmcc_obs::Counter::LockstepSteps, kernelized + interpreted);
        cmcc_obs::add(cmcc_obs::Counter::KernelizedSteps, kernelized);
        cmcc_obs::add(cmcc_obs::Counter::InterpretedSteps, interpreted);
    }
    streams.ensure(kernels, groups);
    let streams = &*streams;
    let run_group = |g: usize, lanes: &mut LaneMemory| {
        let mut total = StripRun::default();
        for (i, strip) in strips.iter().enumerate() {
            total.absorb(&match kernels.get(i).and_then(Option::as_ref) {
                Some(k) => k.run(lanes, &streams.groups[g][i]),
                None => run_resolved_strip_lockstep(strip, lanes),
            });
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
        debug_assert_eq!(
            &first, other,
            "lane groups must replay identical instruction streams"
        );
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ResolvedOp, ResolvedPart, ResolvedSlot};
    use crate::isa::Reg;

    fn part(op: ResolvedOp, addr: usize, delta: i64) -> ResolvedPart {
        ResolvedPart {
            op,
            addr,
            delta,
            slot: ResolvedSlot::Fixed,
        }
    }

    /// The lane-word map of a synthetic strip: two source words, one
    /// output word pair per chain pair, then one coefficient word per
    /// tap per line (each line reads a fresh row of coefficients, so
    /// the packed stream must follow the per-line `advance`).
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
    /// source word 0 through `Reg(2)` with addend 0; right chains read
    /// word 1 through `Reg(3)` with addend 1.
    fn synthetic_line(k: usize, pairs: usize) -> Vec<ResolvedPart> {
        let mut parts = vec![
            part(ResolvedOp::Load { dest: Reg(2) }, 0, 0),
            part(ResolvedOp::Load { dest: Reg(3) }, 1, 0),
            part(ResolvedOp::Nop, 0, 0),
        ];
        let step = (2 * k * pairs) as i64;
        for p in 0..pairs {
            let (dest_l, dest_r) = (Reg(4 + 2 * p as u8), Reg(5 + 2 * p as u8));
            for t in 0..k {
                let last = t == k - 1;
                let acc = |start: Reg| {
                    if t == 0 {
                        MacAcc::Start(start)
                    } else {
                        MacAcc::Chain
                    }
                };
                parts.push(part(
                    ResolvedOp::Mac {
                        data: Reg(2),
                        acc: acc(Reg::ZERO),
                        dest: last.then_some(dest_l),
                    },
                    coeff_base(pairs) + p * 2 * k + 2 * t,
                    step,
                ));
                parts.push(part(
                    ResolvedOp::Mac {
                        data: Reg(3),
                        acc: acc(Reg::ONE),
                        dest: last.then_some(dest_r),
                    },
                    coeff_base(pairs) + p * 2 * k + 2 * t + 1,
                    step,
                ));
            }
        }
        for p in 0..pairs {
            parts.push(part(
                ResolvedOp::Store {
                    src: Reg(4 + 2 * p as u8),
                },
                2 + 2 * p,
                0,
            ));
            parts.push(part(
                ResolvedOp::Store {
                    src: Reg(5 + 2 * p as u8),
                },
                3 + 2 * p,
                0,
            ));
        }
        parts
    }

    fn compile_synthetic(k: usize, pairs: usize, lines: usize) -> StripKernels {
        let patterns = vec![synthetic_line(k, pairs)];
        let steps = (patterns[0].len() * lines) as u64;
        compile_parts(&[], &patterns, lines, steps)
            .expect("synthetic line matches the classified shape")
    }

    fn filled_lanes(k: usize, pairs: usize, lines: usize, n: usize) -> LaneMemory {
        let words = lane_words(k, pairs, lines);
        let mut lanes = LaneMemory::new(words, n);
        for w in 0..words {
            for (lane, v) in lanes.flat_mut(w * n, n).iter_mut().enumerate() {
                *v = val(w, lane);
            }
        }
        lanes
    }

    /// Runs a freshly packed synthetic strip and returns the lanes.
    fn run_synthetic(k: usize, pairs: usize, lines: usize, n: usize) -> LaneMemory {
        let sk = compile_synthetic(k, pairs, lines);
        let mut lanes = filled_lanes(k, pairs, lines, n);
        let mut stream = Vec::new();
        sk.pack_stream(&lanes, &mut stream);
        let run = sk.run(&mut lanes, &stream);
        assert_eq!(run.macs, (lines * 2 * k * pairs) as u64);
        assert_eq!(run.loads, (2 * lines) as u64);
        assert_eq!(run.stores, (2 * pairs * lines) as u64);
        lanes
    }

    /// The scalar oracle: per lane and pair, replay the exact f32
    /// operation order the interpreter defines (separate multiply and
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
            let mut acc_l = cw(0) * a + 0.0f32;
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
    /// monomorphized family.
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
                        let got_l = lanes.flat((2 + 2 * pair) * n, n);
                        let got_r = lanes.flat((3 + 2 * pair) * n, n);
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

    /// Lines that violate the classified shape must reject to the
    /// interpreter (`compile_parts` returns `None`), never mis-compile.
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
        let last_mac = parts
            .iter()
            .rposition(|p| matches!(p.op, ResolvedOp::Mac { .. }))
            .unwrap();
        parts.remove(last_mac);
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
        let last_mac = parts
            .iter()
            .rposition(|p| matches!(p.op, ResolvedOp::Mac { .. }))
            .unwrap();
        if let ResolvedOp::Mac { dest, .. } = &mut parts[last_mac].op {
            *dest = None;
        }
        assert!(
            compile_one(parts).is_none(),
            "missing destination must reject"
        );

        // The writeback-reorder hazard: the right chain's final tap
        // reading the left chain's destination register.
        let mut parts = synthetic_line(3, 1);
        let last_mac = parts
            .iter()
            .rposition(|p| matches!(p.op, ResolvedOp::Mac { .. }))
            .unwrap();
        if let ResolvedOp::Mac { data, .. } = &mut parts[last_mac].op {
            *data = Reg(4); // dest_l of the pair
        }
        assert!(compile_one(parts).is_none(), "dest_l hazard must reject");

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
    }

    /// A stream packed for a different lane count (or strip) is a hard
    /// error, not silent corruption.
    #[test]
    #[should_panic(expected = "coefficient stream")]
    fn stream_shape_mismatch_panics() {
        let sk = compile_synthetic(3, 1, 2);
        let mut lanes = filled_lanes(3, 1, 2, 8);
        let mut stream = Vec::new();
        sk.pack_stream(&lanes, &mut stream);
        stream.pop();
        let _ = sk.run(&mut lanes, &stream);
    }

    /// The stream cache is a snapshot: reused verbatim while valid (by
    /// design — the holder invalidates on coefficient rebinds and host
    /// writes), repacked from current lane contents on `invalidate`,
    /// and repacked automatically when the group shapes change.
    #[test]
    fn coeff_streams_cache_and_invalidate() {
        let k = 2;
        let sk = compile_synthetic(k, 1, 2);
        let kernels = vec![Some(sk)];
        let mut groups = vec![filled_lanes(k, 1, 2, 8)];
        let mut streams = CoeffStreams::new();
        streams.ensure(&kernels, &groups);
        let first = streams.groups[0][0].clone();
        assert_eq!(
            first.len(),
            kernels[0].as_ref().unwrap().stream_words(8),
            "stream covers every tap of every line"
        );

        // Mutate a coefficient word: a valid cache keeps the snapshot.
        let n = 8;
        groups[0].flat_mut(coeff_base(1) * n, n).fill(99.0);
        streams.ensure(&kernels, &groups);
        assert_eq!(streams.groups[0][0], first, "valid cache must not repack");

        // Invalidation repacks from the mutated lanes.
        streams.invalidate();
        streams.ensure(&kernels, &groups);
        assert_ne!(streams.groups[0][0], first, "invalidate must repack");
        assert_eq!(streams.groups[0][0][0], 99.0);

        // A different group shape repacks even without invalidate.
        let mut narrow = vec![filled_lanes(k, 1, 2, 5)];
        streams.ensure(&kernels, &narrow);
        assert_eq!(
            streams.groups[0][0].len(),
            kernels[0].as_ref().unwrap().stream_words(5),
            "shape change must repack for the new lane count"
        );
        let _ = &mut narrow;
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
            let acc = |start: Reg| {
                if t == 0 {
                    MacAcc::Start(start)
                } else {
                    MacAcc::Chain
                }
            };
            let last = t == k - 1;
            for (side, (data, addend, dest)) in
                [(Reg(2), Reg::ZERO, Reg(4)), (Reg(3), Reg::ONE, Reg(5))]
                    .into_iter()
                    .enumerate()
            {
                parts.push(part(
                    ResolvedOp::Mac {
                        data,
                        acc: acc(addend),
                        dest: last.then_some(dest),
                    },
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

    /// Every lane word's bits, for bit-exact comparisons.
    fn lane_bits(lanes: &LaneMemory, words: usize) -> Vec<u32> {
        let n = lanes.nodes();
        lanes
            .flat(0, words * n)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// Runs `strip` through the kernel tier (from `streams`) and through
    /// the interpreter over copies of `lanes`, asserting identical lane
    /// bits and counters.
    fn assert_tier_matches_interpreter(
        strip: &ResolvedStrip,
        kernel: &StripKernels,
        streams: &mut CoeffStreams,
        lanes: &LaneMemory,
        words: usize,
    ) {
        let kernels = [Some(kernel.clone())];
        let mut kern = vec![lanes.clone()];
        streams.ensure(&kernels, &kern);
        let kern_run = kernel.run(&mut kern[0], &streams.groups[0][0]);
        let mut interp = lanes.clone();
        let interp_run = run_resolved_strip_lockstep(strip, &mut interp);
        assert_eq!(kern_run, interp_run, "counters diverge");
        assert_eq!(
            lane_bits(&kern[0], words),
            lane_bits(&interp, words),
            "kernel tier diverges from the interpreter"
        );
    }

    /// A strip whose taps all stand still streams one body period,
    /// replayed every period — even when the line count is not a
    /// multiple of it — while any advancing tap, or a seam-split
    /// strip's one-pattern-per-line body, still streams every line.
    #[test]
    fn stationary_taps_stream_one_period() {
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
            let mut lanes = LaneMemory::new(words, n);
            for w in 0..words {
                for (lane, v) in lanes.flat_mut(w * n, n).iter_mut().enumerate() {
                    *v = val(w, lane);
                }
            }

            // Case 1: every tap stationary — one period, not `lines`.
            let stationary = strip_with(0);
            let kernel = StripKernels::compile(&stationary).expect("classified shape");
            assert_eq!(kernel.stream_words(n), period * taps_per_line * n);
            let mut streams = CoeffStreams::new();
            assert_tier_matches_interpreter(&stationary, &kernel, &mut streams, &lanes, words);
            assert_eq!(streams.groups[0][0].len(), kernel.stream_words(n));
            // Invalidation repacks the period from the current values.
            lanes.flat_mut((coeff0 + taps_per_line) * n, n).fill(-3.5);
            streams.invalidate();
            assert_tier_matches_interpreter(&stationary, &kernel, &mut streams, &lanes, words);
            assert_eq!(streams.groups[0][0][taps_per_line * n], -3.5);
            assert_eq!(streams.groups[0][0].len(), kernel.stream_words(n));

            // Case 2: one advancing tap — every executed line.
            let advancing = strip_with((taps_per_line * period) as i64);
            let kernel = StripKernels::compile(&advancing).expect("classified shape");
            assert_eq!(kernel.stream_words(n), lines * taps_per_line * n);
            assert_tier_matches_interpreter(
                &advancing,
                &kernel,
                &mut CoeffStreams::new(),
                &lanes,
                words,
            );

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
            assert_tier_matches_interpreter(
                &unrolled,
                &kernel,
                &mut CoeffStreams::new(),
                &lanes,
                words,
            );
        }
    }
}
