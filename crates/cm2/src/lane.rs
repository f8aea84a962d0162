//! Node-major lane storage for the lockstep SIMD engine.
//!
//! The CM-2 broadcast one instruction stream to every node at once
//! (§4.3: the dynamic parts are streamed cycle by cycle to *all* FPUs).
//! The scalar engine inverts that — node-outer, step-inner — and so pays
//! instruction dispatch once per node per step. The lockstep engine
//! restores the machine's own loop order, node-inner. To make the
//! node-inner sweep a contiguous vector operation, [`LaneMirror`] stores
//! the *same word of every node side by side*: word `w` of nodes `0..n`
//! lives at `w*n .. (w+1)*n`. One subgrid row of every node is then one
//! contiguous run of `cols × n` floats, and a row sweep
//! ([`crate::kernels`]) streams each term over it — exactly the shape
//! LLVM autovectorizes.
//!
//! Node memory is large and mostly untouched by any one statement, so
//! the lane mirror covers only the address ranges a plan's lane body
//! reads or writes: a [`LaneView`] records those ranges once (halo
//! buffers, coefficient arrays, lane-private buffers the sweeps write)
//! and provides the node-address → lane-word translation plus the
//! gathers that move data from per-node memories into the mirror. The
//! one copy back is [`LaneMirror::stage`]: a strided rectangle of the
//! mirror — the interior of the buffer holding a plan's result —
//! transposed into a [`RegionStage`] for the caller to commit.

use crate::memory::NodeMemory;

/// One contiguous node-memory range mirrored into lane storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRange {
    /// First node-memory address of the range.
    pub node_base: usize,
    /// First lane word (index into the mirror, in words) of the range.
    pub lane_base: usize,
    /// Length in words.
    pub len: usize,
    /// Whether sweeps may store into the range.
    pub writable: bool,
    /// Whether the range is lane-private: sweeps may store into it
    /// (when also `writable`), but it has no node-memory image — it is
    /// skipped by both gather and scatter. Execution plans keep their
    /// destination buffer and temporal scratch states here.
    pub private: bool,
}

impl LaneRange {
    fn contains(&self, addr: usize) -> bool {
        addr >= self.node_base && addr < self.node_base + self.len
    }

    /// The whole range as one run.
    fn rect(&self) -> RectCopy {
        RectCopy {
            node0: self.node_base,
            node_stride: self.len,
            lane0: self.lane_base,
            lane_stride: self.len,
            rows: 1,
            cols: self.len,
        }
    }
}

/// The address map of a lockstep execution: which node-memory ranges are
/// mirrored into lane storage, and where each lands.
///
/// Built once per execution plan. Ranges keep their insertion order, so
/// rebuilding a view from same-length ranges (a plan rebind: a
/// coefficient array moved, its length did not) yields identical lane
/// addresses — lowered row programs and exchanges stay valid and only
/// the gather bases change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneView {
    ranges: Vec<LaneRange>,
    words: usize,
}

impl LaneView {
    /// Builds a view over `(node_base, len, writable)` ranges, assigning
    /// lane words in order.
    ///
    /// Returns `None` when any two ranges overlap in node memory (the
    /// caller bound one array to two roles; the scalar engine handles
    /// that aliasing, the lane mirror cannot) or when a range is empty.
    pub fn new(ranges: &[(usize, usize, bool)]) -> Option<LaneView> {
        let with_private: Vec<(usize, usize, bool, bool)> = ranges
            .iter()
            .map(|&(base, len, writable)| (base, len, writable, false))
            .collect();
        Self::new_with_private(&with_private)
    }

    /// [`LaneView::new`] over `(node_base, len, writable, private)`
    /// ranges. Private ranges reserve lane words like any other but are
    /// excluded from gather and scatter — lane-resident scratch with no
    /// node-memory image. Their `node_base` must still be a real,
    /// non-overlapping node allocation so `locate` stays unambiguous
    /// (temporal plans back scratch with plan-owned node fields, whose
    /// addresses the resolved schedule names).
    pub fn new_with_private(ranges: &[(usize, usize, bool, bool)]) -> Option<LaneView> {
        let mut out = Vec::with_capacity(ranges.len());
        let mut lane_base = 0;
        for &(node_base, len, writable, private) in ranges {
            if len == 0 {
                return None;
            }
            out.push(LaneRange {
                node_base,
                lane_base,
                len,
                writable,
                private,
            });
            lane_base += len;
        }
        // Overlap check: sort by node base, adjacent ranges must not meet.
        let mut sorted: Vec<&LaneRange> = out.iter().collect();
        sorted.sort_by_key(|r| r.node_base);
        for pair in sorted.windows(2) {
            if pair[0].node_base + pair[0].len > pair[1].node_base {
                return None;
            }
        }
        Some(LaneView {
            ranges: out,
            words: lane_base,
        })
    }

    /// Total lane words the view mirrors.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Lane words a full [`LaneMirror::gather`] copies per node (every
    /// non-private range).
    pub fn gather_words(&self) -> usize {
        self.ranges
            .iter()
            .filter(|r| !r.private)
            .map(|r| r.len)
            .sum()
    }

    /// Lane words a [`LaneMirror::scatter`] copies back per node
    /// (writable, non-private ranges).
    pub fn scatter_words(&self) -> usize {
        self.scattered().map(|r| r.len).sum()
    }

    /// The writable, non-private ranges — what a scatter copies back —
    /// in view order.
    fn scattered(&self) -> impl Iterator<Item = &LaneRange> + '_ {
        self.ranges.iter().filter(|r| r.writable && !r.private)
    }

    /// The mirrored ranges, in insertion order.
    pub fn ranges(&self) -> &[LaneRange] {
        &self.ranges
    }

    /// This view with ranges `i` and `j` trading lane words: node
    /// addresses of range `i` translate into the lane words `j` held and
    /// the other way round. A plan runs its second direction on exactly
    /// this translation, derived by swapping lane words in place
    /// ([`crate::kernels::RowProgram::with_ranges_swapped`] and the
    /// exchange programs' counterpart); tests check the two agree.
    ///
    /// # Panics
    ///
    /// Panics if the two ranges differ in length.
    #[cfg(test)]
    pub(crate) fn swapped(&self, i: usize, j: usize) -> LaneView {
        let mut view = self.clone();
        assert_eq!(
            view.ranges[i].len, view.ranges[j].len,
            "only equal-length ranges can trade lane words"
        );
        let lane_i = view.ranges[i].lane_base;
        view.ranges[i].lane_base = view.ranges[j].lane_base;
        view.ranges[j].lane_base = lane_i;
        view
    }

    /// The range containing node address `addr`, and the address's lane
    /// word within the mirror. `None` when the address is outside every
    /// range.
    pub fn locate(&self, addr: usize) -> Option<(usize, &LaneRange)> {
        self.ranges
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| (r.lane_base + (addr - r.node_base), r))
    }
}

/// A strided rectangle paired between node memory and the lane mirror:
/// `rows` runs of `cols` words, at node addresses `node0 + r*node_stride`
/// and lane words `lane0 + r*lane_stride`, the same on every lane.
///
/// The execution plan precomputes one per source to refresh a halo
/// buffer's interior in the mirror (node → lane, the lane-domain
/// `fill_interior`), and one per destination buffer to stage its interior
/// into the result array (lane → node, [`LaneMirror::stage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectCopy {
    /// Node-memory address of the rectangle's first word.
    pub node0: usize,
    /// Node-memory words between consecutive runs.
    pub node_stride: usize,
    /// Lane word of the rectangle's first word.
    pub lane0: usize,
    /// Lane words between consecutive runs.
    pub lane_stride: usize,
    /// Number of runs.
    pub rows: usize,
    /// Words per run.
    pub cols: usize,
}

/// The lane mirror: every viewed word of every node, word-major, in one
/// buffer.
///
/// Word `w`'s lanes occupy `data[w*nodes .. (w+1)*nodes]`, one entry per
/// node, in node order. Gathers, the stage and the lane-domain exchange
/// copies and fills are each one serial pass over this buffer; host
/// threads share it only inside a sweep, which splits a step's output
/// rows into bands ([`crate::kernels::sweep`]).
///
/// The mirror is meant to live inside a long-lived execution plan: its
/// buffer is recycled across executes, and [`LaneMirror::allocations`]
/// counts every (re)allocation so a steady state can be asserted
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct LaneMirror {
    data: Vec<f32>,
    nodes: usize,
    words: usize,
    allocations: u64,
    gathered_words: u64,
    row_gathered_words: u64,
    scattered_words: u64,
    lane_copied_words: u64,
}

/// Words per lane that [`LaneMirror::transpose_rect`] transposes as one
/// tile. 64 words (four cache lines per lane run) were never slower than
/// the untiled loop at 4, 8, 16 or 32 lanes; 8-word tiles lost up to 15%
/// at 8 lanes.
const SCATTER_TILE: usize = 64;

impl LaneMirror {
    /// An empty mirror; shape it with [`LaneMirror::ensure`].
    pub fn new() -> Self {
        LaneMirror::default()
    }

    /// Shapes the mirror to `words` lane words across `nodes` nodes. A
    /// no-op when the shape already matches; otherwise the buffer is
    /// recycled when its length allows, and the allocation counter
    /// records every time it had to be resized. Reshaping leaves the
    /// contents unspecified — gather before running.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn ensure(&mut self, words: usize, nodes: usize) {
        assert!(nodes > 0, "lane mirror needs at least one node");
        if self.nodes == nodes && self.words == words {
            return;
        }
        let needed = words * nodes;
        if self.data.len() != needed {
            self.allocations += 1;
            self.data.clear();
            self.data.resize(needed, 0.0);
        }
        self.nodes = nodes;
        self.words = words;
    }

    /// Total machine nodes mirrored (zero before the first `ensure`).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Buffer (re)allocations performed since the mirror was created.
    /// Constant across steady-state reuse.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Machine-total words copied into the mirror by full-view gathers
    /// since the mirror was created. Monotonic; callers difference it
    /// around a run to attribute traffic.
    pub fn gathered_words(&self) -> u64 {
        self.gathered_words
    }

    /// Machine-total words copied into the mirror by rectangle gathers
    /// ([`LaneMirror::gather_rows`] — the lane-domain interior refresh).
    pub fn row_gathered_words(&self) -> u64 {
        self.row_gathered_words
    }

    /// Machine-total words copied back toward node memories: staged
    /// ([`Self::stage`]) or scattered directly (writable ranges only).
    pub fn scattered_words(&self) -> u64 {
        self.scattered_words
    }

    /// Words moved between lane columns by [`LaneMirror::copy_lane_span`]
    /// (the lane-domain halo exchange).
    pub fn lane_copied_words(&self) -> u64 {
        self.lane_copied_words
    }

    /// The whole buffer, word-major: what a row sweep indexes (word `w`'s
    /// lanes at `w*nodes ..`).
    pub(crate) fn flat_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// All lanes of lane word `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn word(&self, w: usize) -> &[f32] {
        &self.data[w * self.nodes..(w + 1) * self.nodes]
    }

    /// All lanes of lane word `w`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn word_mut(&mut self, w: usize) -> &mut [f32] {
        &mut self.data[w * self.nodes..(w + 1) * self.nodes]
    }

    /// Copies every non-private viewed range of every node into the
    /// mirror. Private ranges are lane-resident scratch with no node
    /// image — their contents are left as-is.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// range is out of a node memory's bounds.
    pub fn gather(&mut self, view: &LaneView, mems: &[NodeMemory]) {
        for range in view.ranges().iter().filter(|r| !r.private) {
            self.copy_in(mems, &range.rect());
        }
        self.gathered_words += (view.gather_words() * self.nodes) as u64;
    }

    /// Copies the rectangle `rect` describes from every node's memory
    /// into the mirror.
    ///
    /// This is the lane-domain equivalent of a per-node strided copy: the
    /// plan uses it to refresh a halo buffer's interior directly in the
    /// mirror, without touching the node-side halo storage.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// run is out of bounds on either side.
    pub fn gather_rows(&mut self, mems: &[NodeMemory], rect: &RectCopy) {
        self.row_gathered_words += self.copy_in(mems, rect) as u64;
    }

    /// Like [`LaneMirror::gather_rows`], but counts the words as
    /// (partial) gather traffic — used to re-prime individual read-only
    /// ranges after a rebind instead of re-gathering the whole view.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// run is out of bounds.
    pub fn gather_rect(&mut self, mems: &[NodeMemory], rect: &RectCopy) {
        self.gathered_words += self.copy_in(mems, rect) as u64;
    }

    /// The node→lane copy behind every gather; returns the
    /// machine-total words it moved.
    fn copy_in(&mut self, mems: &[NodeMemory], rect: &RectCopy) -> usize {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let nodes = self.nodes;
        for r in 0..rect.rows {
            // Word-outer, lane-inner: the mirror is written sequentially
            // and each node memory is read as its own sequential stream.
            // Interleaved *read* streams are cheap; the transposed order
            // (lane-outer) would write one cache line per element. The
            // reverse direction is not symmetric — interleaved *write*
            // streams are the slow case (see `transpose_rect`).
            let srcs: Vec<&[f32]> = mems
                .iter()
                .map(|m| m.slice(rect.node0 + r * rect.node_stride, rect.cols))
                .collect();
            let d0 = rect.lane0 + r * rect.lane_stride;
            let dst = &mut self.data[d0 * nodes..(d0 + rect.cols) * nodes];
            for (w, row) in dst.chunks_exact_mut(nodes).enumerate() {
                for (slot, src) in row.iter_mut().zip(&srcs) {
                    *slot = src[w];
                }
            }
        }
        rect.rows * rect.cols * nodes
    }

    /// The lane→node transpose shared by [`Self::scatter`] and
    /// [`Self::stage`]: copies the lane side of `rect` into `dsts`, one
    /// `rows × cols`-word node-major run per lane (row `r` at
    /// `r*cols`), a tile of [`SCATTER_TILE`] words per row at a time.
    /// `rect`'s node side is the caller's business: each run in `dsts`
    /// already stands for it.
    ///
    /// Reading `nodes` interleaved streams (the gathers) is cheap, but
    /// writing them is not: word-outer, lane-inner order writes one word
    /// to every lane's run before moving on, and at 16 lanes with runs
    /// 64 KiB apart (a 512² stage) all 16 write streams map to one L1
    /// set, more than it has ways. On a Xeon guest with a 48 KiB L1d that
    /// cost 4.4–5.5 ns/word, against 0.83 for the gather. Tiling writes
    /// each lane's tile whole before the next lane's (the tile's source
    /// rows, `SCATTER_TILE × nodes` words, stay cached across the lanes).
    fn transpose_rect(&self, rect: &RectCopy, dsts: &mut [&mut [f32]]) {
        let nodes = self.nodes;
        assert_eq!(dsts.len(), nodes, "one destination run per lane");
        for r in 0..rect.rows {
            let w = rect.lane0 + r * rect.lane_stride;
            let src = &self.data[w * nodes..(w + rect.cols) * nodes];
            for (t, tile) in src.chunks(SCATTER_TILE * nodes).enumerate() {
                let w0 = r * rect.cols + t * SCATTER_TILE;
                for (lane, dst) in dsts.iter_mut().enumerate() {
                    for (slot, row) in dst[w0..].iter_mut().zip(tile.chunks_exact(nodes)) {
                        *slot = row[lane];
                    }
                }
            }
        }
    }

    /// Copies every *writable*, non-private viewed range from the mirror
    /// back into `mems` — the direct copy-back for callers that own the
    /// node memories outright (hand-built views); execution plans stage
    /// their result instead ([`LaneMirror::stage`]).
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// range is out of a node memory's bounds.
    pub fn scatter(&mut self, view: &LaneView, mems: &mut [NodeMemory]) {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        for range in view.scattered() {
            let mut dsts: Vec<&mut [f32]> = mems
                .iter_mut()
                .map(|m| m.slice_mut(range.node_base, range.len))
                .collect();
            self.transpose_rect(&range.rect(), &mut dsts);
        }
        self.scattered_words += (view.scatter_words() * self.nodes) as u64;
    }

    /// Transposes the lane side of `rect` into `stage`'s node-major
    /// buffer, node range `rect.node0 .. rect.node0 + rows·cols`, instead
    /// of writing node memory: the lane execute's only output. An
    /// execute that holds no exclusive machine borrow cannot write node
    /// memory, so its result is staged here and committed later with
    /// [`RegionStage::apply`]. Counts the staged words as scattered (the
    /// commit itself counts nothing), so traffic telemetry does not
    /// depend on who commits. The stage buffer is recycled across
    /// executes.
    ///
    /// # Panics
    ///
    /// Panics unless `rect`'s node side is dense (`node_stride == cols`).
    pub fn stage(&mut self, rect: &RectCopy, stage: &mut RegionStage) {
        assert_eq!(
            rect.node_stride, rect.cols,
            "a stage lands one dense node run"
        );
        let len = rect.rows * rect.cols;
        stage.shape((rect.node0, len), self.nodes);
        let mut dsts: Vec<&mut [f32]> = stage.buf.chunks_exact_mut(len).collect();
        self.transpose_rect(rect, &mut dsts);
        self.scattered_words += (len * self.nodes) as u64;
    }

    /// Copies `len` lane words from word `src` on into `dst..`, for
    /// `count` node pairs at once — node `from0 + i` to node `to0 + i`
    /// for `i < count`: the lane-domain form of the halo-exchange copies
    /// along one edge. Per lane word, the `count` lanes move as one
    /// slice copy, which stays exact when the source and destination
    /// *lane* runs overlap. The *word* runs must not overlap (exchange
    /// copies read a halo interior and write the halo ring, which are
    /// disjoint by construction).
    ///
    /// # Panics
    ///
    /// Panics if a lane run leaves the mirrored nodes or a word run
    /// leaves the mirror.
    pub fn copy_lane_span(
        &mut self,
        from0: usize,
        to0: usize,
        count: usize,
        src: usize,
        dst: usize,
        len: usize,
    ) {
        let nodes = self.nodes;
        assert!(
            from0 + count <= nodes && to0 + count <= nodes,
            "lane run out of range"
        );
        for w in 0..len {
            let s = (src + w) * nodes + from0;
            self.data.copy_within(s..s + count, (dst + w) * nodes + to0);
        }
        self.lane_copied_words += (count * len) as u64;
    }

    /// Fills `len` lane words starting at `w0` of node `node`'s lane
    /// column with `value` — the lane-domain form of one boundary
    /// zero-fill span.
    ///
    /// # Panics
    ///
    /// Panics if the node index or word run is out of range.
    pub fn fill_lane_run(&mut self, node: usize, w0: usize, len: usize, value: f32) {
        assert!(node < self.nodes, "node out of range");
        for w in w0..w0 + len {
            self.data[w * self.nodes + node] = value;
        }
    }
}

/// The result of one lane-resident execute, staged off to the side in
/// node-major order.
///
/// Region-leased executes read node memory under a *shared* machine
/// lock and compute with no machine lock at all (many tenants at once),
/// so they cannot write node memory directly. [`LaneMirror::stage`]
/// transposes the destination buffer's interior into this buffer without
/// touching the machine — the expensive lane-major → node-major
/// transpose — and [`RegionStage::apply`] then commits it under a brief
/// exclusive lock as one contiguous slice copy per node.
///
/// The buffer is recycled across executes (a steady state stages
/// allocation-free), and [`RegionStage::ranges`] exposes exactly which
/// node range the commit will touch so the caller can assert it is
/// contained in the execute's leased writable ranges.
#[derive(Debug, Clone, Default)]
pub struct RegionStage {
    /// The staged `(node_base, len)` range; `None` until the first stage.
    range: Option<(usize, usize)>,
    /// Node-major: lane `n`'s words at `n*len..(n+1)*len`.
    buf: Vec<f32>,
    nodes: usize,
}

impl RegionStage {
    /// An empty stage; shaped by the first [`LaneMirror::stage`].
    pub fn new() -> Self {
        RegionStage::default()
    }

    /// The staged `(node_base, len)` node range — one entry, or none
    /// before the first [`LaneMirror::stage`].
    pub fn ranges(&self) -> &[(usize, usize)] {
        self.range.as_slice()
    }

    /// Machine-total staged words.
    pub fn words(&self) -> usize {
        self.range.map_or(0, |(_, len)| len) * self.nodes
    }

    /// Reshapes to stage `range`, recycling the buffer.
    fn shape(&mut self, range: (usize, usize), nodes: usize) {
        self.nodes = nodes;
        self.range = Some(range);
        self.buf.resize(range.1 * nodes, 0.0);
    }

    /// Commits the staged words to node memories: each node's run is one
    /// contiguous slice copy.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the staged node count or the
    /// range is out of a node memory's bounds.
    pub fn apply(&self, mems: &mut [NodeMemory]) {
        let Some((node_base, len)) = self.range else {
            return;
        };
        assert_eq!(mems.len(), self.nodes, "one node memory per staged lane");
        for (node, m) in mems.iter_mut().enumerate() {
            m.slice_mut(node_base, len)
                .copy_from_slice(&self.buf[node * len..(node + 1) * len]);
        }
    }
}

/// A bounded free-list of [`LaneMirror`]s shared across plan instances.
///
/// Tenants of a concurrent session come and go, and each instance owns a
/// mirror sized `view.words() × nodes`. Without pooling, every new
/// instance pays a fresh mirror allocation even when an identically
/// shaped tenant just retired. The pool recycles retired mirrors:
/// [`MirrorPool::take`] hands out the most recently returned one (its
/// buffers are reshaped by the next `ensure`, which is a no-op when the
/// shape matches — [`LaneMirror::allocations`] then stays flat), and
/// [`MirrorPool::put`] accepts a mirror back until the pool is full.
///
/// The pool is a plain mutex around a vec: take/put happen once per
/// instance creation/retirement, never on the per-iteration path.
#[derive(Debug, Default)]
pub struct MirrorPool {
    free: std::sync::Mutex<Vec<LaneMirror>>,
    capacity: usize,
    reused: std::sync::atomic::AtomicU64,
    returned: std::sync::atomic::AtomicU64,
    missed: std::sync::atomic::AtomicU64,
}

impl MirrorPool {
    /// An empty pool holding at most `capacity` retired mirrors.
    pub fn new(capacity: usize) -> Self {
        MirrorPool {
            free: std::sync::Mutex::new(Vec::new()),
            capacity,
            reused: std::sync::atomic::AtomicU64::new(0),
            returned: std::sync::atomic::AtomicU64::new(0),
            missed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Hands out a pooled mirror, or a fresh empty one when the pool is
    /// dry. Pooled contents are unspecified — prime before use.
    pub fn take(&self) -> LaneMirror {
        self.take_counted().0
    }

    /// Like [`MirrorPool::take`], but also reports whether the take
    /// missed (found the free list empty and had to hand out a fresh
    /// mirror) — the signal the session turns into its
    /// `mirror_pool_misses` telemetry.
    pub fn take_counted(&self) -> (LaneMirror, bool) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        match free.pop() {
            Some(m) => {
                self.reused
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (m, false)
            }
            None => {
                self.missed
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (LaneMirror::new(), true)
            }
        }
    }

    /// Returns a retired mirror to the pool; dropped when the pool is
    /// full or the mirror never allocated (nothing worth recycling).
    pub fn put(&self, mirror: LaneMirror) {
        if mirror.nodes() == 0 {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < self.capacity {
            free.push(mirror);
            self.returned
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Mirrors currently waiting in the pool.
    pub fn len(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the pool is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many takes were served from the pool instead of allocating.
    pub fn reuses(&self) -> u64 {
        self.reused.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many retired mirrors were accepted back into the pool.
    pub fn returns(&self) -> u64 {
        self.returned.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many takes found the pool dry and allocated a fresh mirror.
    /// The first take per distinct shape always misses; a steadily
    /// climbing count under a stable tenant load means the capacity is
    /// too small for the working set.
    pub fn misses(&self) -> u64 {
        self.missed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drops every pooled mirror (their host buffers free immediately).
    pub fn clear(&self) {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zeroed mirror of `words` lane words across `nodes` lanes.
    fn mirror(words: usize, nodes: usize) -> LaneMirror {
        let mut mirror = LaneMirror::new();
        mirror.ensure(words, nodes);
        mirror
    }

    #[test]
    fn view_assigns_lane_words_in_order() {
        let view = LaneView::new(&[(100, 4, false), (10, 2, true)]).unwrap();
        assert_eq!(view.words(), 6);
        assert_eq!(view.locate(100), Some((0, &view.ranges()[0])));
        assert_eq!(view.locate(103).unwrap().0, 3);
        assert_eq!(view.locate(10).unwrap().0, 4);
        assert_eq!(view.locate(11).unwrap().0, 5);
        assert!(view.locate(104).is_none());
        assert!(view.locate(12).is_none());
        assert!(view.locate(0).is_none());
    }

    #[test]
    fn overlapping_or_empty_ranges_are_rejected() {
        assert!(LaneView::new(&[(0, 4, false), (3, 4, false)]).is_none());
        assert!(LaneView::new(&[(0, 4, false), (0, 4, true)]).is_none());
        assert!(LaneView::new(&[(0, 0, false)]).is_none());
        // Touching (adjacent) ranges are fine.
        assert!(LaneView::new(&[(0, 4, false), (4, 4, false)]).is_some());
    }

    #[test]
    fn gather_transposes_node_major() {
        let view = LaneView::new(&[(2, 3, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..2).map(|_| NodeMemory::new(8)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..3 {
                mem.write(2 + w, (10 * n + w) as f32);
            }
        }
        let mut lanes = mirror(view.words(), 2);
        lanes.gather(&view, &mems);
        assert_eq!(lanes.word(0), &[0.0, 10.0]);
        assert_eq!(lanes.word(1), &[1.0, 11.0]);
        assert_eq!(lanes.word(2), &[2.0, 12.0]);
        assert_eq!(lanes.gathered_words(), 6);
    }

    #[test]
    fn scatter_writes_only_writable_ranges() {
        let view = LaneView::new(&[(0, 2, false), (4, 2, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..2).map(|_| NodeMemory::new(8)).collect();
        let mut lanes = mirror(view.words(), 2);
        for w in 0..4 {
            lanes
                .word_mut(w)
                .copy_from_slice(&[(w) as f32, (w + 10) as f32]);
        }
        lanes.scatter(&view, &mut mems);
        // Read-only range untouched…
        assert_eq!(mems[0].read(0), 0.0);
        assert_eq!(mems[1].read(1), 0.0);
        // …writable range landed, lane-per-node.
        assert_eq!(mems[0].read(4), 2.0);
        assert_eq!(mems[1].read(4), 12.0);
        assert_eq!(mems[0].read(5), 3.0);
        assert_eq!(mems[1].read(5), 13.0);
        assert_eq!(lanes.scattered_words(), 4);
    }

    #[test]
    fn private_ranges_are_skipped_by_gather_and_scatter() {
        // word layout: [ro 0..2, private rw 4..6, rw 8..10]
        let view = LaneView::new_with_private(&[
            (0, 2, false, false),
            (4, 2, true, true),
            (8, 2, true, false),
        ])
        .unwrap();
        assert_eq!(view.words(), 6);
        assert_eq!(view.gather_words(), 4);
        assert_eq!(view.scatter_words(), 2);
        let mut mems: Vec<NodeMemory> = (0..2).map(|_| NodeMemory::new(12)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            mem.write(4, 100.0 + n as f32);
            mem.write(5, 200.0 + n as f32);
        }
        let mut lanes = mirror(view.words(), 2);
        for w in 0..6 {
            lanes
                .word_mut(w)
                .copy_from_slice(&[w as f32, (w + 10) as f32]);
        }
        lanes.gather(&view, &mems);
        // Private lane words survive the gather untouched…
        assert_eq!(lanes.word(2), &[2.0, 12.0]);
        assert_eq!(lanes.word(3), &[3.0, 13.0]);
        // …while the plain writable range was gathered over. Emulate a
        // kernel rewriting it so the scatter has something to land.
        lanes.word_mut(4).copy_from_slice(&[4.0, 14.0]);
        lanes.word_mut(5).copy_from_slice(&[5.0, 15.0]);
        lanes.scatter(&view, &mut mems);
        // …and the node image behind them survives the scatter.
        assert_eq!(mems[0].read(4), 100.0);
        assert_eq!(mems[1].read(5), 201.0);
        // The plain writable range still lands.
        assert_eq!(mems[0].read(8), 4.0);
        assert_eq!(mems[1].read(9), 15.0);
    }

    #[test]
    fn mirror_reuse_performs_no_allocations() {
        let mut mirror = mirror(6, 4);
        let after_first = mirror.allocations();
        assert!(after_first > 0);
        for _ in 0..10 {
            mirror.ensure(6, 4);
        }
        assert_eq!(
            mirror.allocations(),
            after_first,
            "steady-state ensure reallocates"
        );
        // Reshaping to the same total length recycles the buffer.
        mirror.ensure(8, 3);
        assert_eq!(mirror.allocations(), after_first);
        mirror.ensure(8, 4);
        assert_eq!(mirror.allocations(), after_first + 1);
    }

    /// `copy_lane_span` lands exactly what `count` per-node copies of
    /// the word run would: spans whose source and destination lane runs
    /// overlap in either direction, disjoint spans, one lane, and a
    /// whole-machine span — and it touches nothing else.
    #[test]
    fn span_copy_matches_per_node_copies() {
        let (words, nodes, len) = (6, 7, 2);
        let fresh = || {
            let mut mirror = mirror(words, nodes);
            for w in 0..words {
                for (node, v) in mirror.word_mut(w).iter_mut().enumerate() {
                    *v = (node * 100 + w * 7) as f32;
                }
            }
            mirror
        };
        // (from0, to0, count)
        let cases = [
            (0, 1, 2),
            (1, 0, 6),
            (1, 4, 3),
            (5, 1, 2),
            (3, 3, 1),
            (0, 0, 7),
        ];
        for (from0, to0, count) in cases {
            let mut spanned = fresh();
            spanned.copy_lane_span(from0, to0, count, 1, 4, len);
            let before = fresh();
            let mut want: Vec<Vec<f32>> = (0..words).map(|w| before.word(w).to_vec()).collect();
            for i in 0..count {
                for k in 0..len {
                    want[4 + k][to0 + i] = before.word(1 + k)[from0 + i];
                }
            }
            for (w, want) in want.iter().enumerate() {
                assert_eq!(
                    spanned.word(w),
                    &want[..],
                    "span ({from0},{to0},{count}): word {w}"
                );
            }
            assert_eq!(spanned.lane_copied_words(), (count * len) as u64);
        }
    }

    /// A lane run past the last node panics instead of spilling into the
    /// next word's lanes.
    #[test]
    #[should_panic(expected = "lane run out of range")]
    fn span_copy_past_the_last_node_panics() {
        mirror(6, 7).copy_lane_span(0, 6, 2, 1, 4, 2);
    }

    #[test]
    fn mirror_gather_rows_mirrors_a_node_rectangle() {
        let mut mems: Vec<NodeMemory> = (0..3).map(|_| NodeMemory::new(16)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..16 {
                mem.write(w, (100 * n + w) as f32);
            }
        }
        let mut mirror = mirror(12, 3);
        // 2 rows × 3 cols from node address 4, stride 4 → lane words 1..,
        // stride 5.
        mirror.gather_rows(
            &mems,
            &RectCopy {
                node0: 4,
                node_stride: 4,
                lane0: 1,
                lane_stride: 5,
                rows: 2,
                cols: 3,
            },
        );
        for n in 0..3 {
            assert_eq!(mirror.word(1)[n], (100 * n + 4) as f32);
            assert_eq!(mirror.word(3)[n], (100 * n + 6) as f32);
            assert_eq!(mirror.word(6)[n], (100 * n + 8) as f32);
            assert_eq!(mirror.word(8)[n], (100 * n + 10) as f32);
        }
        assert_eq!(mirror.row_gathered_words(), 18);
        assert_eq!(mirror.gathered_words(), 0);
    }

    #[test]
    fn gather_scatter_round_trips() {
        let view = LaneView::new(&[(1, 5, true)]).unwrap();
        let mut mems: Vec<NodeMemory> = (0..3).map(|_| NodeMemory::new(8)).collect();
        for (n, mem) in mems.iter_mut().enumerate() {
            for w in 0..5 {
                mem.write(1 + w, (n * 100 + w * 7) as f32);
            }
        }
        let before: Vec<NodeMemory> = mems.clone();
        let mut lanes = mirror(view.words(), 3);
        lanes.gather(&view, &mems);
        lanes.scatter(&view, &mut mems);
        assert_eq!(mems, before);
    }

    /// The tiled lane→node transpose, both as a direct scatter and as a
    /// strided stage committed by `RegionStage::apply`, lands exactly
    /// what an element-wise copy would, across lane counts below, at and
    /// above 16 lanes and run lengths from one word through full tiles
    /// with a ragged tail — and writes nothing else: read-only and
    /// private ranges and the guard words around and between ranges keep
    /// their contents.
    #[test]
    fn tiled_scatter_matches_elementwise_reference() {
        let guard = |node: usize, addr: usize| -((node * 1_000 + addr) as f32) - 0.5;
        for nodes in [1, 3, 8, 15, 16, 17, 33] {
            for len in [1, 15, 16, 17, 300] {
                // [guard 3][ro len][guard 2][private len][guard 2]
                // [rw len][guard 3][rw 4·len+1][guard 5]
                let ro = 3;
                let private = ro + len + 2;
                let rw = private + len + 2;
                let rw2 = rw + len + 3;
                let size = rw2 + 4 * len + 1 + 5;
                let view = LaneView::new_with_private(&[
                    (ro, len, false, false),
                    (private, len, true, true),
                    (rw, len, true, false),
                    (rw2, 4 * len + 1, true, false),
                ])
                .unwrap();
                let fresh: Vec<NodeMemory> = (0..nodes)
                    .map(|node| {
                        let mut mem = NodeMemory::new(size);
                        for addr in 0..size {
                            mem.write(addr, guard(node, addr));
                        }
                        mem
                    })
                    .collect();
                // The element-wise references: each written word is its
                // lane's value of the matching lane word.
                let value = |node: usize, lane_word: usize| (node * 100_003 + lane_word) as f32;
                let mut want = fresh.clone();
                for range in view.scattered() {
                    for (node, mem) in want.iter_mut().enumerate() {
                        for w in 0..range.len {
                            mem.write(range.node_base + w, value(node, range.lane_base + w));
                        }
                    }
                }
                // The stage: two strided rows of the last range's lanes
                // (every other `len`-word run, one word in) onto the
                // dense node run at its start.
                let last = view.ranges()[3];
                let rect = RectCopy {
                    node0: last.node_base,
                    node_stride: len,
                    lane0: last.lane_base + 1,
                    lane_stride: 2 * len,
                    rows: 2,
                    cols: len,
                };
                let mut want_staged = fresh.clone();
                for (node, mem) in want_staged.iter_mut().enumerate() {
                    for r in 0..2 {
                        for c in 0..len {
                            let lane_word = rect.lane0 + r * rect.lane_stride + c;
                            mem.write(rect.node0 + r * len + c, value(node, lane_word));
                        }
                    }
                }
                let mut mirror = mirror(view.words(), nodes);
                for w in 0..view.words() {
                    for (node, v) in mirror.word_mut(w).iter_mut().enumerate() {
                        *v = value(node, w);
                    }
                }
                let case = format!("{nodes} lanes, len {len}");
                let mut direct = fresh.clone();
                mirror.scatter(&view, &mut direct);
                let mut stage = RegionStage::new();
                mirror.stage(&rect, &mut stage);
                assert_eq!(stage.ranges(), &[(rect.node0, 2 * len)]);
                assert_eq!(stage.words(), 2 * len * nodes);
                let mut staged = fresh.clone();
                stage.apply(&mut staged);
                for (path, got, want) in [
                    ("scatter", &direct, &want),
                    ("stage", &staged, &want_staged),
                ] {
                    for node in 0..nodes {
                        let bits = |mems: &[NodeMemory]| -> Vec<u32> {
                            mems[node]
                                .slice(0, size)
                                .iter()
                                .map(|v| v.to_bits())
                                .collect()
                        };
                        assert_eq!(bits(got), bits(want), "{path}: {case}, node {node}");
                    }
                }
            }
        }
    }

    /// Swapping two ranges trades their lane words and nothing else.
    #[test]
    fn swapped_view_trades_lane_words_of_two_ranges() {
        let view = LaneView::new(&[(100, 4, false), (10, 2, false), (50, 4, true)]).unwrap();
        let swapped = view.swapped(0, 2);
        assert_eq!(swapped.words(), view.words());
        assert_eq!(swapped.locate(100).unwrap().0, 6);
        assert_eq!(swapped.locate(53).unwrap().0, 3);
        assert_eq!(swapped.locate(11).unwrap().0, 5);
        assert!(swapped.locate(53).unwrap().1.writable);
        assert_eq!(swapped.swapped(0, 2), view);
    }

    #[test]
    fn mirror_pool_recycles_shaped_mirrors_without_reallocating() {
        let pool = MirrorPool::new(2);
        assert!(pool.is_empty());

        // A fresh take allocates nothing by itself; shaping it does.
        let mut m = pool.take();
        assert_eq!(pool.reuses(), 0);
        m.ensure(6, 4);
        let allocs = m.allocations();
        assert!(allocs > 0);

        // Unshaped mirrors are not worth pooling.
        pool.put(LaneMirror::new());
        assert!(pool.is_empty());

        pool.put(m);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.returns(), 1);

        // A same-shape tenant reuses the buffer: `ensure` is a no-op
        // and the allocation counter stays flat.
        let mut again = pool.take();
        assert_eq!(pool.reuses(), 1);
        again.ensure(6, 4);
        assert_eq!(again.allocations(), allocs);

        // The pool is bounded: a third return on capacity 2 is dropped.
        pool.put(again);
        pool.put(mirror(3, 2));
        pool.put(mirror(3, 2));
        assert_eq!(pool.len(), 2);

        pool.clear();
        assert!(pool.is_empty());
    }
}
