//! The lockstep engine: row sweeps from the stencil IR.
//!
//! The paper's compiler fixes every operand before the inner loop runs,
//! so the FPU streams one multiply-add per cycle (§1). The host form of
//! that discipline starts from the lane mirror's layout
//! ([`crate::lane::LaneMirror`]): word `w` of every node sits side by
//! side, so one subgrid row of the whole machine is one contiguous run
//! of `cols × nodes` floats. A [`RowProgram`] — lowered
//! at plan build from the stencil IR (its taps, coefficient references,
//! bias terms and sources) by the runtime, which owns the IR — names per
//! fused step the output region and, per term in statement order, the
//! run its data comes from and its coefficient. [`sweep`] then streams
//! whole rows: each term is one vectorizable pass over a row, the way
//! Devito generates its loop nest from the stencil expression and
//! vectorizes along the innermost contiguous dimension; host threads
//! split the outer loop, taking bands of output rows. Named
//! coefficients are read in place from their mirror rows; literal and
//! unit coefficients are scalars.
//!
//! **Bit-identity.** Every output point gets exactly the IEEE operation
//! sequence of its compiled chain in the scalar engine
//! ([`crate::exec::run_resolved_strip`]): `k·d + 0.0` for the first term
//! (every chain starts from the zero register), then `acc + k·d` for
//! each later term, where a bias term's `d` is the `1.0` register and a
//! unit tap's `k` is the ones page. Multiply and add stay separate
//! operations, never fused, and lanes never interact, so sweeping rows
//! instead of replaying the register schedule re-orders nothing a point
//! can observe. The scalar engine keeps running the compiled schedule,
//! so the two engines are independent derivations of one statement and
//! the differential suites compare them bit for bit.
//!
//! **Invariants.** [`RowProgram::new`] checks, once per program and in
//! every build profile, against the plan's lane layout (its
//! [`LaneBuffer`]s), that every run lies inside one buffer, that each
//! step's destination lies in a swept buffer and that no destination
//! row overlaps a run the same step reads. The sweep relies on them to
//! accumulate straight into the destination rows, and to hand each
//! thread its own band of those rows while all of them read the rest of
//! the mirror; a program that fails them is refused at build, never at
//! sweep time.

use std::ops::Range;

use crate::lane::LaneMirror;

/// One buffer of a plan's lane layout, as the build checks see it: `len`
/// lane words from lane word `base`. The row sweeps write only `swept`
/// buffers (a plan's scratch states and destination); the others are
/// filled by copies into the mirror and only read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBuffer {
    /// First lane word.
    pub base: usize,
    /// Length in lane words.
    pub len: usize,
    /// Whether the row sweeps write the buffer.
    pub swept: bool,
}

/// A rectangle of lane words swept one output row at a time: row `r`
/// starts at lane word `word + r·stride` and spans the step's `cols`
/// words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRun {
    /// Lane word of the region's first row and column.
    pub word: usize,
    /// Lane words between the starts of consecutive rows.
    pub stride: usize,
}

impl RowRun {
    /// The lane word row `row` starts at.
    #[inline]
    pub fn at(self, row: usize) -> usize {
        self.word + row * self.stride
    }
}

/// What multiplies a term's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowCoeff {
    /// One value at every point: a literal, or `1.0` for a unit tap.
    Scalar(f32),
    /// A coefficient array, read in place: one value per point.
    Run(RowRun),
}

/// One term of a statement, in accumulation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowTerm {
    /// Where the term's data comes from; `None` for a bias term, whose
    /// data is the `1.0` register.
    pub data: Option<RowRun>,
    /// The term's coefficient.
    pub coeff: RowCoeff,
}

/// One fused step of a [`RowProgram`]: a `rows × cols` output region
/// and the terms every point of it accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct RowStep {
    /// Output rows.
    pub rows: usize,
    /// Words per output row (per lane).
    pub cols: usize,
    /// Where the output region lives.
    pub dest: RowRun,
    /// The statement's terms: taps in statement order, then bias terms.
    pub terms: Vec<RowTerm>,
}

impl RowStep {
    /// The first and last lane word `run` touches over this region.
    fn hull(&self, run: RowRun) -> (usize, usize) {
        (run.word, run.at(self.rows - 1) + self.cols - 1)
    }

    /// Every run the step reads: data runs and coefficient runs.
    fn reads(&self) -> impl Iterator<Item = RowRun> + '_ {
        self.terms.iter().flat_map(|t| {
            let coeff = match t.coeff {
                RowCoeff::Run(run) => Some(run),
                RowCoeff::Scalar(_) => None,
            };
            t.data.into_iter().chain(coeff)
        })
    }

    /// The build-time invariants of the module docs, against `buffers`.
    fn check(&self, buffers: &[LaneBuffer]) -> Result<(), &'static str> {
        if self.rows == 0 || self.cols == 0 {
            return Err("an empty output region");
        }
        if self.terms.is_empty() {
            return Err("a step without terms");
        }
        let buffer_of = |run: RowRun| {
            let (lo, hi) = self.hull(run);
            buffers
                .iter()
                .find(|b| (b.base..b.base + b.len).contains(&lo))
                .filter(|b| hi < b.base + b.len)
        };
        let dest = buffer_of(self.dest).ok_or("a destination run leaves its buffer")?;
        if !dest.swept {
            return Err("a destination outside the swept buffers");
        }
        if self.dest.stride < self.cols {
            return Err("destination rows that overlap each other");
        }
        let (lo, hi) = self.hull(self.dest);
        for run in self.reads() {
            buffer_of(run).ok_or("a term run leaves its buffer")?;
            let (l, h) = self.hull(run);
            if l <= hi && lo <= h {
                return Err("a destination row overlaps a run the step reads");
            }
        }
        Ok(())
    }
}

/// A statement lowered to lane words: one [`RowStep`] per fused step,
/// each checked against the lane layout at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RowProgram {
    steps: Vec<RowStep>,
}

impl RowProgram {
    /// Checks every step against the lane layout `buffers` (see the
    /// module docs) and returns the program.
    ///
    /// # Errors
    ///
    /// The reason, when a step has an empty region or no terms, a run
    /// leaves its buffer, a destination is not in a swept buffer or its
    /// rows overlap each other, or a destination row overlaps a run the
    /// same step reads.
    pub fn new(steps: Vec<RowStep>, buffers: &[LaneBuffer]) -> Result<RowProgram, &'static str> {
        for step in &steps {
            step.check(buffers)?;
        }
        Ok(RowProgram { steps })
    }

    /// The fused steps, in execution order.
    pub fn steps(&self) -> &[RowStep] {
        &self.steps
    }

    /// This program with the lane words of two equal-length buffers,
    /// starting at words `a` and `b`, exchanged: what lowering against a
    /// layout in which the two buffers trade lane words returns. The
    /// exchange moves whole buffers, so every run stays inside one buffer
    /// and every destination stays disjoint from what its step reads;
    /// the checks `new` made carry over.
    pub fn with_buffers_swapped(&self, a: usize, b: usize, len: usize) -> RowProgram {
        let swap = |run: RowRun| {
            let word = if (a..a + len).contains(&run.word) {
                run.word - a + b
            } else if (b..b + len).contains(&run.word) {
                run.word - b + a
            } else {
                run.word
            };
            RowRun { word, ..run }
        };
        let steps = self
            .steps
            .iter()
            .map(|step| RowStep {
                dest: swap(step.dest),
                terms: step
                    .terms
                    .iter()
                    .map(|t| RowTerm {
                        data: t.data.map(swap),
                        coeff: match t.coeff {
                            RowCoeff::Run(run) => RowCoeff::Run(swap(run)),
                            scalar => scalar,
                        },
                    })
                    .collect(),
                ..*step
            })
            .collect();
        RowProgram { steps }
    }
}

/// Sweeps `step` over the whole mirror, its output rows cut into
/// `min(threads, step.rows)` bands of contiguous rows sized as evenly as
/// possible (`threads` clamped to `1..=nodes` first). The calling thread
/// sweeps band 0 and one scoped worker each other band; every band is
/// one `execute_workers` span. Bands write disjoint destination rows
/// and read only runs the build checks put wholly below or wholly above
/// the destination hull, and each point's chain stays on one thread, so
/// the split is invisible to results — the outer loop of the nest runs
/// in parallel, the inner `cols × nodes` row stays one vector stream.
///
/// # Panics
///
/// Panics if the mirror is smaller than the layout `step` was checked
/// against, or if a worker thread panics.
pub fn sweep(step: &RowStep, mirror: &mut LaneMirror, threads: usize) {
    let n = mirror.nodes();
    let bands = threads.clamp(1, n).min(step.rows);
    let (lo, hi) = step.hull(step.dest);
    let (below, rest) = mirror.flat_mut().split_at_mut(lo * n);
    let (mut hull, above) = rest.split_at_mut((hi + 1 - lo) * n);
    let reads = Reads {
        below,
        above,
        hull: lo * n..(hi + 1) * n,
        nodes: n,
    };
    // Band `b` starts at row `b·rows/bands`; row `r` at `r·stride` words
    // into the hull.
    let start = |b: usize| b * step.rows / bands;
    std::thread::scope(|scope| {
        for b in (1..bands).rev() {
            let (head, band) =
                std::mem::take(&mut hull).split_at_mut(start(b) * step.dest.stride * n);
            hull = head;
            let (rows, reads) = (start(b)..start(b + 1), reads.clone());
            scope.spawn(move || sweep_band(step, rows, band, reads));
        }
        sweep_band(step, 0..start(1), hull, reads);
    });
}

/// The mirror a band reads: everything below and above the destination
/// hull (`hull`, in floats), where the build checks put every run a
/// step reads.
#[derive(Clone)]
struct Reads<'a> {
    below: &'a [f32],
    above: &'a [f32],
    hull: Range<usize>,
    nodes: usize,
}

impl<'a> Reads<'a> {
    /// The `len` floats from lane word `word` on.
    fn run(&self, word: usize, len: usize) -> &'a [f32] {
        let s = word * self.nodes;
        if s < self.hull.start {
            &self.below[s..s + len]
        } else {
            &self.above[s - self.hull.end..][..len]
        }
    }
}

/// Most terms one pass over a row accumulates. Each term adds one or
/// two operand streams to the pass; on the 2-vCPU Xeon guest the
/// nine-array 9-point statement swept 25–32% faster with passes of
/// three or four terms than with one pass per term, and five-point heat
/// 22–27% faster.
const MAX_FUSED: usize = 4;

/// One band's sweep: `band` holds output rows `rows` (row `rows.start`
/// first). Per output row, the terms in statement order accumulate over
/// the whole `cols × nodes` row, straight into the destination —
/// consecutive terms of one kind fused into passes of at most
/// [`MAX_FUSED`] (each point still adds them one after another).
fn sweep_band(step: &RowStep, rows: Range<usize>, band: &mut [f32], reads: Reads<'_>) {
    let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
    let len = step.cols * reads.nodes;
    let row_floats = step.dest.stride * reads.nodes;
    for (i, row) in rows.enumerate() {
        let acc = &mut band[i * row_floats..][..len];
        let read = |run: RowRun| reads.run(run.at(row), len);
        let mut terms = &step.terms[..];
        let mut first = true;
        while !terms.is_empty() {
            let (pass, rest) = terms.split_at(next_pass(terms));
            match pass.len() {
                1 => fused::<1>(acc, pass, &read, first),
                2 => fused::<2>(acc, pass, &read, first),
                3 => fused::<3>(acc, pass, &read, first),
                _ => fused::<MAX_FUSED>(acc, pass, &read, first),
            }
            (terms, first) = (rest, false);
        }
    }
}

/// What a term streams: a scalar or a coefficient run times its data,
/// or a bias term's coefficient times `1.0`.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Scalar,
    Run,
    Bias,
}

impl Kind {
    fn of(term: &RowTerm) -> Kind {
        match (term.data, term.coeff) {
            (None, _) => Kind::Bias,
            (Some(_), RowCoeff::Scalar(_)) => Kind::Scalar,
            (Some(_), RowCoeff::Run(_)) => Kind::Run,
        }
    }
}

/// How many leading terms of `terms` the next pass takes: the leading
/// terms of one kind, split evenly into passes of at most
/// [`MAX_FUSED`]; a bias term alone.
fn next_pass(terms: &[RowTerm]) -> usize {
    let kind = Kind::of(&terms[0]);
    if kind == Kind::Bias {
        return 1;
    }
    let same = terms.iter().take_while(|t| Kind::of(t) == kind).count();
    same.div_ceil(same.div_ceil(MAX_FUSED))
}

/// One pass of `T` terms of one kind over a row (`first`: the pass
/// that starts every point's chain).
#[inline(always)]
fn fused<'a, const T: usize>(
    acc: &mut [f32],
    pass: &[RowTerm],
    read: &impl Fn(RowRun) -> &'a [f32],
    first: bool,
) {
    let coeff = |t: usize| match pass[t].coeff {
        RowCoeff::Scalar(k) => Coeff::Scalar(k),
        RowCoeff::Run(run) => Coeff::Run(read(run)),
    };
    if pass[0].data.is_none() {
        return bias(acc, coeff(0), first);
    }
    let data: [&[f32]; T] = std::array::from_fn(|t| match pass[t].data {
        Some(run) => read(run),
        None => unreachable!("one kind per pass"),
    });
    match coeff(0) {
        Coeff::Scalar(_) => {
            let ks = std::array::from_fn(|t| match coeff(t) {
                Coeff::Scalar(k) => k,
                Coeff::Run(_) => unreachable!("one kind per pass"),
            });
            if first {
                scalar_pass::<T, true>(acc, ks, data);
            } else {
                scalar_pass::<T, false>(acc, ks, data);
            }
        }
        Coeff::Run(_) => {
            let cs = std::array::from_fn(|t| match coeff(t) {
                Coeff::Run(c) => c,
                Coeff::Scalar(_) => unreachable!("one kind per pass"),
            });
            if first {
                run_pass::<T, true>(acc, cs, data);
            } else {
                run_pass::<T, false>(acc, cs, data);
            }
        }
    }
}

/// A term's coefficient over one row.
#[derive(Clone, Copy)]
enum Coeff<'a> {
    Scalar(f32),
    Run(&'a [f32]),
}

/// `T` scalar-coefficient terms over a row: the first term of every
/// point's chain is `k·d + 0.0` (the chain starts from the zero
/// register, so a `-0.0` product becomes `+0.0`, as in the scalar
/// engine), every later one `acc + k·d` — separate multiplies and adds,
/// in term order.
#[inline(always)]
fn scalar_pass<const T: usize, const FIRST: bool>(
    acc: &mut [f32],
    ks: [f32; T],
    data: [&[f32]; T],
) {
    let len = acc.len();
    let data = data.map(|d| &d[..len]);
    for (i, a) in acc.iter_mut().enumerate() {
        let mut v = if FIRST {
            ks[0] * data[0][i] + 0.0
        } else {
            *a + ks[0] * data[0][i]
        };
        for t in 1..T {
            v += ks[t] * data[t][i];
        }
        *a = v;
    }
}

/// [`scalar_pass`] with coefficient runs: one coefficient per point.
#[inline(always)]
fn run_pass<const T: usize, const FIRST: bool>(
    acc: &mut [f32],
    coeffs: [&[f32]; T],
    data: [&[f32]; T],
) {
    let len = acc.len();
    let (coeffs, data) = (coeffs.map(|c| &c[..len]), data.map(|d| &d[..len]));
    for (i, a) in acc.iter_mut().enumerate() {
        let mut v = if FIRST {
            coeffs[0][i] * data[0][i] + 0.0
        } else {
            *a + coeffs[0][i] * data[0][i]
        };
        for t in 1..T {
            v += coeffs[t][i] * data[t][i];
        }
        *a = v;
    }
}

/// A bias term over a row: its coefficient times the `1.0` register,
/// starting or continuing every point's chain.
fn bias(acc: &mut [f32], coeff: Coeff<'_>, first: bool) {
    match (coeff, first) {
        (Coeff::Scalar(k), true) => acc.fill(k * 1.0 + 0.0),
        (Coeff::Scalar(k), false) => {
            let p = k * 1.0;
            for a in acc.iter_mut() {
                *a += p;
            }
        }
        (Coeff::Run(c), true) => {
            for (a, &c) in acc.iter_mut().zip(c) {
                *a = c * 1.0 + 0.0;
            }
        }
        (Coeff::Run(c), false) => {
            for (a, &c) in acc.iter_mut().zip(c) {
                *a += c * 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A padded `rows × cols` buffer with a `pad`-deep ring, as the
    /// runtime lays out halo buffers: logical `(r, c)` for `r, c` in
    /// `-pad..dim+pad` at `base + (r + pad)·stride + c + pad`.
    #[derive(Clone, Copy)]
    struct Buf {
        base: usize,
        pad: usize,
        stride: usize,
        rows: usize,
    }

    impl Buf {
        fn new(base: usize, rows: usize, cols: usize, pad: usize) -> Buf {
            Buf {
                base,
                pad,
                stride: cols + 2 * pad,
                rows: rows + 2 * pad,
            }
        }

        fn len(&self) -> usize {
            self.rows * self.stride
        }

        fn lane_buffer(&self, swept: bool) -> LaneBuffer {
            LaneBuffer {
                base: self.base,
                len: self.len(),
                swept,
            }
        }

        fn word(&self, r: i64, c: i64) -> usize {
            let (r, c) = (r + self.pad as i64, c + self.pad as i64);
            assert!(r >= 0 && c >= 0);
            self.base + r as usize * self.stride + c as usize
        }

        /// The run of the region whose first point is logical `(r0, c0)`.
        fn run(&self, r0: i64, c0: i64) -> RowRun {
            RowRun {
                word: self.word(r0, c0),
                stride: self.stride,
            }
        }
    }

    /// One term of a test statement: `(source, drow, dcol)` of its data
    /// (`None` for a bias term) and its coefficient.
    type TestTerm = (Option<(usize, i64, i64)>, K);

    /// A test term's coefficient: a scalar, or an index into the
    /// coefficient buffers.
    #[derive(Clone, Copy)]
    enum K {
        Scalar(f32),
        Array(usize),
    }

    struct Layout {
        sources: Vec<Buf>,
        coeffs: Vec<Buf>,
        dest: Buf,
        buffers: Vec<LaneBuffer>,
    }

    /// `sources` halo buffers of pad 2, `coeffs` unpadded arrays and a
    /// swept destination of pad 1, all `rows × cols`, laid out one after
    /// another.
    fn layout(sources: usize, coeffs: usize, rows: usize, cols: usize) -> Layout {
        let mut next = 0;
        let mut take = |pad: usize| {
            let buf = Buf::new(next, rows, cols, pad);
            next += buf.len();
            buf
        };
        let sources: Vec<Buf> = (0..sources).map(|_| take(2)).collect();
        let coeffs: Vec<Buf> = (0..coeffs).map(|_| take(0)).collect();
        let dest = take(1);
        let buffers = sources
            .iter()
            .chain(&coeffs)
            .map(|b| b.lane_buffer(false))
            .chain([dest.lane_buffer(true)])
            .collect();
        Layout {
            sources,
            coeffs,
            dest,
            buffers,
        }
    }

    impl Layout {
        fn step(&self, rows: usize, cols: usize, terms: &[TestTerm]) -> RowStep {
            RowStep {
                rows,
                cols,
                dest: self.dest.run(0, 0),
                terms: terms
                    .iter()
                    .map(|&(data, k)| RowTerm {
                        data: data.map(|(s, dr, dc)| self.sources[s].run(dr, dc)),
                        coeff: match k {
                            K::Scalar(v) => RowCoeff::Scalar(v),
                            K::Array(a) => RowCoeff::Run(self.coeffs[a].run(0, 0)),
                        },
                    })
                    .collect(),
            }
        }
    }

    /// Deterministic lane-word contents that vary with word and lane,
    /// with signed zeros, a subnormal and infinities mixed in so
    /// operation order is observable. (No NaN inputs: Rust leaves the
    /// payload of a NaN result unspecified, so only the one NaN the
    /// hardware generates may appear.)
    fn val(word: usize, lane: usize) -> f32 {
        match (word * 7 + lane * 13) % 41 {
            0 => -0.0,
            1 => 0.0,
            2 => f32::from_bits(1),
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            h => (h as f32 - 20.0) * 0.3 + 1.0e7 * (h % 3) as f32,
        }
    }

    fn filled(words: usize, n: usize) -> LaneMirror {
        let mut lanes = LaneMirror::new();
        lanes.ensure(words, n);
        for w in 0..words {
            for (lane, v) in lanes.word_mut(w).iter_mut().enumerate() {
                *v = val(w, lane);
            }
        }
        lanes
    }

    /// The naive evaluation: per lane and per point, the chain's exact
    /// operation sequence — `k·d + 0.0`, then `acc + k·d` — with a bias
    /// term's data `1.0`.
    fn naive(
        lay: &Layout,
        terms: &[TestTerm],
        lanes: &LaneMirror,
        (rows, cols): (usize, usize),
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for lane in 0..lanes.nodes() {
            for r in 0..rows as i64 {
                for c in 0..cols as i64 {
                    let mut acc = 0.0f32;
                    for (i, &(data, k)) in terms.iter().enumerate() {
                        let d = data.map_or(1.0, |(s, dr, dc)| {
                            lanes.word(lay.sources[s].word(r + dr, c + dc))[lane]
                        });
                        let k = match k {
                            K::Scalar(v) => v,
                            K::Array(a) => lanes.word(lay.coeffs[a].word(r, c))[lane],
                        };
                        let p = k * d;
                        acc = if i == 0 { p + 0.0 } else { acc + p };
                    }
                    out.push(acc.to_bits());
                }
            }
        }
        out
    }

    /// The destination region's bits, lane-major like [`naive`].
    fn dest_bits(lay: &Layout, lanes: &LaneMirror, (rows, cols): (usize, usize)) -> Vec<u32> {
        let mut out = Vec::new();
        for lane in 0..lanes.nodes() {
            for r in 0..rows as i64 {
                for c in 0..cols as i64 {
                    out.push(lanes.word(lay.dest.word(r, c))[lane].to_bits());
                }
            }
        }
        out
    }

    /// Sweeps `terms` over a `rows × 7` region of a filled mirror of `n`
    /// lanes on `threads` threads and compares every destination point
    /// with the naive evaluation, bit for bit; everything outside the
    /// destination region must keep its contents.
    fn assert_sweep_matches_naive(
        rows: usize,
        (sources, coeffs): (usize, usize),
        terms: &[TestTerm],
        n: usize,
        threads: usize,
    ) {
        let cols = 7;
        let lay = layout(sources, coeffs, rows, cols);
        let program = RowProgram::new(vec![lay.step(rows, cols, terms)], &lay.buffers)
            .expect("a well-formed program");
        let words = lay.dest.base + lay.dest.len();
        let before = filled(words, n);
        let mut after = before.clone();
        sweep(&program.steps()[0], &mut after, threads);
        let what = format!(
            "{} terms, {rows} rows, {n} lanes, {threads} threads",
            terms.len()
        );
        assert_eq!(
            dest_bits(&lay, &after, (rows, cols)),
            naive(&lay, terms, &before, (rows, cols)),
            "{what}: the sweep diverges from the naive evaluation"
        );
        let dest_words: Vec<usize> = (0..rows as i64)
            .flat_map(|r| (0..cols as i64).map(move |c| (r, c)))
            .map(|(r, c)| lay.dest.word(r, c))
            .collect();
        for w in (0..words).filter(|w| !dest_words.contains(w)) {
            for lane in 0..n {
                assert_eq!(
                    after.word(w)[lane].to_bits(),
                    before.word(w)[lane].to_bits(),
                    "{what}: word {w} outside the destination changed"
                );
            }
        }
    }

    /// A 5-point cross with named coefficients, a unit tap and a bias.
    fn cross_terms() -> Vec<TestTerm> {
        vec![
            (Some((0, -1, 0)), K::Array(0)),
            (Some((0, 0, -1)), K::Scalar(0.25)),
            (Some((0, 0, 0)), K::Scalar(1.0)),
            (Some((0, 0, 1)), K::Array(1)),
            (Some((0, 1, 0)), K::Scalar(-0.5)),
            (None, K::Array(2)),
        ]
    }

    /// Named, literal and unit coefficients and a bias term, over one
    /// lane, odd lane counts and the board's 16, each on 1 to 8
    /// threads: bands of one and two rows, uneven bands, and more
    /// threads than rows (or lanes) — plus a one-row step, which no
    /// thread count splits.
    #[test]
    fn sweep_matches_naive_evaluation_across_group_widths() {
        for n in [1, 3, 5, 7, 16] {
            for threads in [1, 2, 3, 5, 8] {
                assert_sweep_matches_naive(5, (1, 3), &cross_terms(), n, threads);
                assert_sweep_matches_naive(1, (1, 3), &cross_terms(), n, threads);
            }
        }
    }

    /// Chains longer than 16 terms (mixed kinds, and long runs of one
    /// kind that split into several fused passes), single-term
    /// statements (whose `-0.0` products the chain's `+ 0.0` turns into
    /// `+0.0`), bias-only statements (one term and several, scalar and
    /// array), unit taps and multi-source stencils.
    #[test]
    fn sweep_matches_naive_evaluation_on_every_term_shape() {
        let long: Vec<_> = (0..21)
            .map(|t| {
                let (dr, dc) = ((t % 5) as i64 - 2, (t / 5) as i64 - 2);
                let k = if t % 3 == 0 {
                    K::Array(t % 2)
                } else {
                    K::Scalar(0.125 * t as f32 - 1.0)
                };
                (Some((0, dr, dc)), k)
            })
            .collect();
        let offset = |t: usize| ((t % 5) as i64 - 2, (t / 5 % 5) as i64 - 2);
        let scalars: Vec<_> = (0..17)
            .map(|t| {
                (
                    Some((0, offset(t).0, offset(t).1)),
                    K::Scalar(0.25 - 0.0625 * t as f32),
                )
            })
            .collect();
        let mut arrays: Vec<_> = (0..13)
            .map(|t| (Some((0, offset(t).0, offset(t).1)), K::Array(t % 2)))
            .collect();
        arrays.push((None, K::Array(1)));
        let singles = [
            vec![(Some((0, 0, 0)), K::Scalar(0.5))],
            vec![(Some((0, 1, -1)), K::Scalar(-0.5))],
            vec![(Some((0, -1, 1)), K::Array(1))],
        ];
        let bias_one = vec![(None, K::Array(0))];
        let bias_many = vec![
            (None, K::Array(0)),
            (None, K::Scalar(3.5)),
            (None, K::Array(1)),
        ];
        let units = vec![
            (Some((0, 0, 0)), K::Scalar(1.0)),
            (Some((0, 2, -2)), K::Scalar(1.0)),
            (Some((0, -2, 1)), K::Scalar(1.0)),
        ];
        let multi = vec![
            (Some((0, 0, 0)), K::Array(0)),
            (Some((1, 1, 0)), K::Scalar(0.5)),
            (Some((2, 0, -1)), K::Array(1)),
            (Some((1, -2, 2)), K::Scalar(1.0)),
            (None, K::Scalar(-0.75)),
        ];
        for n in [1, 3, 16] {
            assert_sweep_matches_naive(5, (1, 2), &long, n, 1);
            assert_sweep_matches_naive(5, (1, 2), &scalars, n, 2);
            assert_sweep_matches_naive(5, (1, 2), &arrays, n, 1);
            for single in &singles {
                assert_sweep_matches_naive(5, (1, 2), single, n, 1);
            }
            assert_sweep_matches_naive(5, (1, 2), &bias_one, n, 1);
            assert_sweep_matches_naive(5, (1, 2), &bias_many, n, 2);
            assert_sweep_matches_naive(5, (1, 1), &units, n, 1);
            assert_sweep_matches_naive(5, (3, 2), &multi, n, 2);
        }
    }

    /// The build-time checks: a well-formed program passes; a tap whose
    /// run leaves its buffer, a destination that overlaps a source, a
    /// destination outside the swept buffers and destination rows that
    /// overlap each other are refused by `new`, never met at sweep time.
    #[test]
    fn malformed_programs_are_refused_at_build() {
        let (rows, cols) = (5, 7);
        let lay = layout(1, 1, rows, cols);
        let terms = [
            (Some((0, -1, 0)), K::Array(0)),
            (Some((0, 1, 1)), K::Scalar(2.0)),
        ];
        let good = lay.step(rows, cols, &terms);
        assert!(RowProgram::new(vec![good.clone()], &lay.buffers).is_ok());
        let refused =
            |step: RowStep| RowProgram::new(vec![good.clone(), step], &lay.buffers).unwrap_err();

        // A tap three rows down: its run leaves the pad-2 source buffer.
        let mut step = good.clone();
        step.terms[0].data = Some(lay.sources[0].run(3, 0));
        assert_eq!(refused(step), "a term run leaves its buffer");

        // A coefficient run past its array.
        let mut step = good.clone();
        step.terms[0].coeff = RowCoeff::Run(lay.coeffs[0].run(1, 0));
        assert_eq!(refused(step), "a term run leaves its buffer");

        // The destination on top of what the step reads.
        let mut step = good.clone();
        step.terms[1].data = Some(lay.dest.run(-1, -1));
        assert_eq!(
            refused(step),
            "a destination row overlaps a run the step reads"
        );

        // The destination in a buffer the sweeps only read.
        let mut step = good.clone();
        step.dest = lay.sources[0].run(0, 0);
        step.terms = vec![RowTerm {
            data: None,
            coeff: RowCoeff::Scalar(1.0),
        }];
        assert_eq!(refused(step), "a destination outside the swept buffers");

        // Destination rows that overlap each other.
        let mut step = good.clone();
        step.dest.stride = cols - 1;
        assert_eq!(refused(step), "destination rows that overlap each other");

        // A destination run that leaves its buffer.
        let mut step = good.clone();
        step.rows = rows + 3;
        assert_eq!(refused(step), "a destination run leaves its buffer");

        let mut step = good.clone();
        step.terms.clear();
        assert_eq!(refused(step), "a step without terms");
        let mut step = good.clone();
        step.cols = 0;
        assert_eq!(refused(step), "an empty output region");
    }

    /// Swapping two buffers' lane words commutes with the sweep: the
    /// swapped program over a mirror whose two buffers trade contents
    /// leaves the swapped image of what the original leaves.
    #[test]
    fn swapped_program_sweeps_the_swapped_mirror() {
        let (rows, cols) = (5, 7);
        let lay = layout(1, 1, rows, cols);
        // A destination shaped like source 0 (pad 2) so the two trade.
        let dest = Buf::new(lay.dest.base + lay.dest.len(), rows, cols, 2);
        let mut buffers = lay.buffers.clone();
        buffers.push(dest.lane_buffer(true));
        let words = dest.base + dest.len();
        let mut step = lay.step(
            rows,
            cols,
            &cross_terms()[..5]
                .iter()
                .map(|&(d, k)| {
                    (
                        d,
                        match k {
                            K::Array(_) => K::Array(0),
                            k => k,
                        },
                    )
                })
                .collect::<Vec<_>>(),
        );
        step.dest = dest.run(0, 0);
        let program = RowProgram::new(vec![step], &buffers).unwrap();
        let (a, b, len) = (lay.sources[0].base, dest.base, dest.len());
        let swapped = program.with_buffers_swapped(a, b, len);
        let swap = |lanes: &LaneMirror| {
            let mut out = lanes.clone();
            for w in 0..len {
                out.word_mut(a + w).copy_from_slice(lanes.word(b + w));
                out.word_mut(b + w).copy_from_slice(lanes.word(a + w));
            }
            out
        };
        for n in [1, 5, 16] {
            let lanes = filled(words, n);
            let run = |program: &RowProgram, mut lanes: LaneMirror| {
                sweep(&program.steps()[0], &mut lanes, 1);
                lanes
            };
            let direct = run(&program, lanes.clone());
            let through_swap = run(&swapped, swap(&lanes));
            let bits = |l: &LaneMirror| -> Vec<u32> {
                (0..words)
                    .flat_map(|w| l.word(w).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .collect()
            };
            assert_eq!(bits(&swap(&direct)), bits(&through_swap), "{n} lanes");
        }
    }
}
