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
//! the lane mirror holds only the buffers a plan's lane body reads or
//! writes, laid out one after another from the plan's shape alone
//! (source halos, coefficients, scratch states, the destination). Two
//! copies cross between node memory and the mirror, each a strided
//! [`RectCopy`]: a refresh fills a buffer's interior from the array it
//! holds ([`LaneMirror::gather`]), and the commit's scatter
//! ([`LaneMirror::scatter`]) transposes the interior of the buffer
//! holding a plan's result straight into the result array.

/// A strided rectangle paired between node memory and the lane mirror:
/// `rows` runs of `cols` words, at node addresses `node0 + r*node_stride`
/// and lane words `lane0 + r*lane_stride`, the same on every lane.
///
/// The execution plan pairs each lane buffer's interior with the array
/// it is refreshed from (node → lane, the lane-domain `fill_interior`),
/// and the interior of the buffer holding its result with the result
/// array (lane → node, [`LaneMirror::scatter`]).
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

/// The lane mirror: every lane buffer's words on every node, word-major,
/// in one buffer.
///
/// Word `w`'s lanes occupy `data[w*nodes .. (w+1)*nodes]`, one entry per
/// node, in node order. Refreshes, the scatter and the lane-domain exchange
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
}

/// Words per lane that [`LaneMirror::scatter`] transposes as one tile.
/// 64 words (four cache lines per lane run) were never slower than the
/// untiled loop at 4, 8, 16 or 32 lanes; 8-word tiles lost up to 15% at
/// 8 lanes.
const SCATTER_TILE: usize = 64;

impl LaneMirror {
    /// An empty mirror; shape it with [`LaneMirror::ensure`].
    pub fn new() -> Self {
        LaneMirror::default()
    }

    /// Shapes the mirror to `words` lane words across `nodes` nodes,
    /// resizing the buffer in place while its capacity allows; the
    /// allocation counter records every time it had to grow past that.
    /// Reshaping leaves the contents unspecified — refresh before
    /// running.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn ensure(&mut self, words: usize, nodes: usize) {
        assert!(nodes > 0, "lane mirror needs at least one node");
        let needed = words * nodes;
        if needed > self.data.capacity() {
            self.allocations += 1;
            self.data = vec![0.0; needed];
        } else {
            self.data.resize(needed, 0.0);
        }
        self.nodes = nodes;
        self.words = words;
    }

    /// Total machine nodes mirrored (zero before the first `ensure`).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Lane words per node (zero before the first `ensure`).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Buffer (re)allocations performed since the mirror was created.
    /// Constant across steady-state reuse.
    pub fn allocations(&self) -> u64 {
        self.allocations
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

    /// Copies the rectangle `rect` describes from every node's memory
    /// (`mems`, one slice per node in node order) into the mirror, and
    /// returns the machine-total words it moved: the lane-domain
    /// equivalent of a per-node strided copy, which refreshes a lane
    /// buffer's interior from the array it holds.
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// run is out of bounds on either side.
    pub fn gather(&mut self, mems: &[&[f32]], rect: &RectCopy) -> usize {
        assert_eq!(mems.len(), self.nodes, "one node memory per lane");
        let nodes = self.nodes;
        for r in 0..rect.rows {
            // Word-outer, lane-inner: the mirror is written sequentially
            // and each node memory is read as its own sequential stream.
            // Interleaved *read* streams are cheap; the transposed order
            // (lane-outer) would write one cache line per element. The
            // reverse direction is not symmetric — interleaved *write*
            // streams are the slow case (see `scatter`).
            let s0 = rect.node0 + r * rect.node_stride;
            let d0 = rect.lane0 + r * rect.lane_stride;
            let dst = &mut self.data[d0 * nodes..(d0 + rect.cols) * nodes];
            for (w, row) in dst.chunks_exact_mut(nodes).enumerate() {
                for (slot, mem) in row.iter_mut().zip(mems) {
                    *slot = mem[s0 + w];
                }
            }
        }
        rect.rows * rect.cols * nodes
    }

    /// Transposes the lane side of `rect` into every node's memory at
    /// its node side — a lane execute's only write to node memory, made
    /// by its commit under the machine write lock — and returns the
    /// machine-total words it moved. `mems` holds one slice per node, in
    /// node order.
    ///
    /// Reading `nodes` interleaved streams (the gathers) is cheap, but
    /// writing them is not: word-outer, lane-inner order writes one word
    /// to every lane's run before moving on, and at 16 lanes with runs
    /// 64 KiB apart (a 512² result) all 16 write streams map to one L1
    /// set, more than it has ways. On a Xeon guest with a 48 KiB L1d that
    /// cost 4.4–5.5 ns/word, against 0.83 for the gather. Tiling writes
    /// each lane's tile whole before the next lane's (the tile's source
    /// rows, `SCATTER_TILE × nodes` words, stay cached across the
    /// lanes).
    ///
    /// # Panics
    ///
    /// Panics if `mems.len()` differs from the mirrored node count or a
    /// run is out of bounds on either side.
    pub fn scatter(&self, rect: &RectCopy, mems: &mut [&mut [f32]]) -> usize {
        let nodes = self.nodes;
        assert_eq!(mems.len(), nodes, "one node memory per lane");
        for r in 0..rect.rows {
            let w = rect.lane0 + r * rect.lane_stride;
            let src = &self.data[w * nodes..(w + rect.cols) * nodes];
            for (t, tile) in src.chunks(SCATTER_TILE * nodes).enumerate() {
                let w0 = rect.node0 + r * rect.node_stride + t * SCATTER_TILE;
                let run = w0..w0 + tile.len() / nodes;
                for (lane, mem) in mems.iter_mut().enumerate() {
                    for (slot, row) in mem[run.clone()].iter_mut().zip(tile.chunks_exact(nodes)) {
                        *slot = row[lane];
                    }
                }
            }
        }
        rect.rows * rect.cols * nodes
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
        // Shrinking resizes in place, and growing back within the
        // capacity allocates nothing either.
        mirror.ensure(2, 4);
        assert_eq!((mirror.words(), mirror.nodes()), (2, 4));
        assert_eq!(mirror.allocations(), after_first + 1, "a shrink allocated");
        mirror.ensure(8, 4);
        assert_eq!(mirror.allocations(), after_first + 1, "a regrow allocated");
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
        }
    }

    /// A lane run past the last node panics instead of spilling into the
    /// next word's lanes.
    #[test]
    #[should_panic(expected = "lane run out of range")]
    fn span_copy_past_the_last_node_panics() {
        mirror(6, 7).copy_lane_span(0, 6, 2, 1, 4, 2);
    }

    /// `gather` lands a strided node rectangle at strided lane words,
    /// node-major input transposed lane-major, and returns the
    /// machine-total words it moved.
    #[test]
    fn mirror_gather_mirrors_a_node_rectangle() {
        let mems: Vec<Vec<f32>> = (0..3)
            .map(|n| (0..16).map(|w| (100 * n + w) as f32).collect())
            .collect();
        let views: Vec<&[f32]> = mems.iter().map(Vec::as_slice).collect();
        // 2 rows × 3 cols from node address 4, stride 4 → lane words 1..,
        // stride 5.
        let rect = RectCopy {
            node0: 4,
            node_stride: 4,
            lane0: 1,
            lane_stride: 5,
            rows: 2,
            cols: 3,
        };
        let mut rows = mirror(12, 3);
        assert_eq!(rows.gather(&views, &rect), 18);
        for n in 0..3 {
            assert_eq!(rows.word(1)[n], (100 * n + 4) as f32);
            assert_eq!(rows.word(3)[n], (100 * n + 6) as f32);
            assert_eq!(rows.word(6)[n], (100 * n + 8) as f32);
            assert_eq!(rows.word(8)[n], (100 * n + 10) as f32);
        }
    }

    /// The tiled lane→node transpose, as a scatter into guarded node
    /// memories, lands exactly what an element-wise copy would, across
    /// lane counts below, at and above 16 lanes and run lengths from one
    /// word through full tiles with a ragged tail — and writes nothing
    /// else: the guard words around and between the scattered runs keep
    /// their contents.
    #[test]
    fn tiled_scatter_matches_elementwise_reference() {
        let guard = |node: usize, addr: usize| -((node * 1_000 + addr) as f32) - 0.5;
        for nodes in [1, 3, 8, 15, 16, 17, 33] {
            for len in [1, 15, 16, 17, 300] {
                // Node memory: [guard 3][run len][guard 2][run len][guard
                // 5]. The scatter reads two strided rows of a `4·len +
                // 1`-word mirror (every other `len`-word run, one word in).
                let (node0, words) = (3, 4 * len + 1);
                let size = node0 + 2 * len + 2 + 5;
                let fresh: Vec<Vec<f32>> = (0..nodes)
                    .map(|node| (0..size).map(|addr| guard(node, addr)).collect())
                    .collect();
                let rect = RectCopy {
                    node0,
                    node_stride: len + 2,
                    lane0: 1,
                    lane_stride: 2 * len,
                    rows: 2,
                    cols: len,
                };
                // The element-wise reference: each scattered word is its
                // lane's value of the matching lane word.
                let value = |node: usize, lane_word: usize| (node * 100_003 + lane_word) as f32;
                let mut want = fresh.clone();
                for (node, mem) in want.iter_mut().enumerate() {
                    for r in 0..2 {
                        for c in 0..len {
                            let lane_word = rect.lane0 + r * rect.lane_stride + c;
                            mem[node0 + r * rect.node_stride + c] = value(node, lane_word);
                        }
                    }
                }
                let mut mirror = mirror(words, nodes);
                for w in 0..words {
                    for (node, v) in mirror.word_mut(w).iter_mut().enumerate() {
                        *v = value(node, w);
                    }
                }
                let case = format!("{nodes} lanes, len {len}");
                let mut scattered = fresh.clone();
                let mut views: Vec<&mut [f32]> =
                    scattered.iter_mut().map(Vec::as_mut_slice).collect();
                assert_eq!(mirror.scatter(&rect, &mut views), 2 * len * nodes);
                let bits = |mem: &[f32]| -> Vec<u32> { mem.iter().map(|v| v.to_bits()).collect() };
                for node in 0..nodes {
                    assert_eq!(
                        bits(&scattered[node]),
                        bits(&want[node]),
                        "{case}, node {node}"
                    );
                }
            }
        }
    }

    /// A rectangle running past the end of node memory panics instead of
    /// landing a truncated run.
    #[test]
    #[should_panic(expected = "out of range")]
    fn scatter_past_the_end_of_node_memory_panics() {
        let mut mem = [0.0f32; 8];
        let rect = RectCopy {
            node0: 6,
            node_stride: 4,
            lane0: 0,
            lane_stride: 4,
            rows: 1,
            cols: 4,
        };
        mirror(4, 1).scatter(&rect, &mut [&mut mem[..]]);
    }
}
