//! Halo (temporary-storage) management and the three-step exchange.
//!
//! "Interprocessor communication for an entire stencil computation is
//! performed at the beginning all at once. First, temporary storage is
//! allocated to hold data from neighboring subgrids ... Second, data is
//! exchanged with all four neighbors. ... The third step is to exchange
//! data for the corners" (§5.1). The subgrid is padded "on all four sides
//! by the largest of the four border widths" because the four-neighbor
//! primitive makes the extra padding free, and the corner step "may be
//! omitted" for patterns that need no diagonal data.
//!
//! This implementation keeps the padded buffer contiguous in node memory,
//! so the kernels address halo data with the same stride as interior data.
//! (The paper's temporary storage was arranged as separate pieces, which
//! is what made half-strip boundary handling delicate; the contiguous
//! layout is a simplification that preserves all the costs we model —
//! see DESIGN.md.)

use crate::array::CmArray;
use crate::error::RuntimeError;
use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::exec::FieldLayout;
use cmcc_cm2::grid::{Direction, NodeGrid, NodeId};
use cmcc_cm2::lane::{LaneMirror, LaneView};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::memory::{copy_between, Field};
use cmcc_cm2::news::{
    corner_exchange_cycles, news_exchange_cycles, old_exchange_cycles, ExchangeShape,
};
use cmcc_core::stencil::Boundary;
use std::ops::Range;

/// Which grid-communication primitive prices the exchange (the data moved
/// is identical; §4.1 describes the new primitive's advantage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExchangePrimitive {
    /// The paper's new microcoded primitive: all four neighbors at once.
    #[default]
    News,
    /// The older primitive: one direction at a time.
    OldPerDirection,
}

/// A padded per-node buffer holding a subgrid plus its halo ring.
#[derive(Debug, Clone, Copy)]
pub struct HaloBuffer {
    field: Field,
    pad: usize,
    sub_rows: usize,
    sub_cols: usize,
}

impl HaloBuffer {
    /// Allocates a `(sub_rows + 2·pad) × (sub_cols + 2·pad)` buffer on
    /// every node from the persistent arena, so it outlives per-call
    /// `alloc_mark` scopes. Must be returned with
    /// [`HaloBuffer::release`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SubgridTooSmall`] when the halo is deeper than the
    /// subgrid (one exchange could not fill it), or
    /// [`RuntimeError::OutOfMemory`].
    pub fn new(
        machine: &mut Machine,
        sub_rows: usize,
        sub_cols: usize,
        pad: usize,
    ) -> Result<Self, RuntimeError> {
        if pad > sub_rows || pad > sub_cols {
            return Err(RuntimeError::SubgridTooSmall {
                pad,
                sub_rows,
                sub_cols,
            });
        }
        let field = machine.alloc_field_persistent((sub_rows + 2 * pad) * (sub_cols + 2 * pad))?;
        Ok(HaloBuffer {
            field,
            pad,
            sub_rows,
            sub_cols,
        })
    }

    /// Returns the buffer to the persistent arena.
    pub fn release(self, machine: &mut Machine) {
        machine.free_field_persistent(self.field);
    }

    /// The underlying field.
    pub fn field(&self) -> Field {
        self.field
    }

    /// Halo depth.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Address arithmetic: logical subgrid coordinates, halo at negative
    /// offsets.
    pub fn layout(&self) -> FieldLayout {
        FieldLayout {
            base: self.field.base(),
            row_stride: self.sub_cols + 2 * self.pad,
            row_offset: self.pad as i64,
            col_offset: self.pad as i64,
        }
    }

    /// Words of temporary storage per node (the space cost of padding,
    /// §5.1: "There is a cost in temporary memory space").
    pub fn words(&self) -> usize {
        self.field.len()
    }

    fn addr(&self, padded_row: usize, padded_col: usize) -> usize {
        self.field.base() + padded_row * (self.sub_cols + 2 * self.pad) + padded_col
    }

    /// Copies each node's subgrid of `src` into the buffer interior,
    /// stamping the interior rows as written.
    ///
    /// SIMD addressing makes the copy plan node-independent, so the
    /// addresses are computed once and replayed on every node.
    pub fn fill_interior(&self, machine: &mut Machine, src: &CmArray) -> usize {
        assert_eq!(src.sub_rows(), self.sub_rows);
        assert_eq!(src.sub_cols(), self.sub_cols);
        let src_layout = src.layout();
        let src0 = src_layout.addr(0, 0);
        let src_stride = src_layout.row_stride;
        let dst0 = self.addr(self.pad, self.pad);
        let dst_stride = self.sub_cols + 2 * self.pad;
        let (rows, cols) = (self.sub_rows, self.sub_cols);
        let _t = cmcc_obs::trace::scope(
            cmcc_obs::trace::TraceOp::InteriorRefresh,
            (rows * cols) as u64,
        );
        let interior = dst0..dst0 + (rows - 1) * dst_stride + cols;
        let mems = machine.write_nodes([interior]);
        for mem in mems.iter_mut() {
            for lr in 0..rows {
                mem.copy_within(src0 + lr * src_stride, dst0 + lr * dst_stride, cols);
            }
        }
        let words = rows * cols * mems.len();
        cmcc_obs::add(cmcc_obs::Counter::InteriorRefreshWords, words as u64);
        words
    }

    /// Performs the halo exchange and returns the communication cycles
    /// charged.
    ///
    /// Step one exchanges edge sections with the four NEWS neighbors
    /// simultaneously; step two (skipped when `need_corners` is false)
    /// exchanges the four corner sections with diagonal neighbors. With
    /// [`Boundary::ZeroFill`], halo regions beyond the global array edge
    /// are zeroed afterward instead of keeping the torus-wrapped data.
    pub fn exchange(
        &self,
        machine: &mut Machine,
        boundary: Boundary,
        need_corners: bool,
        primitive: ExchangePrimitive,
    ) -> u64 {
        self.exchange_with_fill(machine, boundary, 0.0, need_corners, primitive)
    }

    /// [`HaloBuffer::exchange`] with an explicit end-off fill value
    /// (Fortran's `EOSHIFT(…, BOUNDARY=v)`); meaningful only under
    /// [`Boundary::ZeroFill`].
    ///
    /// Builds and immediately runs an [`ExchangeProgram`]; callers that
    /// exchange repeatedly (cached execution plans) build the program
    /// once and run it per iteration instead.
    pub fn exchange_with_fill(
        &self,
        machine: &mut Machine,
        boundary: Boundary,
        fill: f32,
        need_corners: bool,
        primitive: ExchangePrimitive,
    ) -> u64 {
        let program = ExchangeProgram::new(
            self,
            machine.grid(),
            machine.config(),
            boundary,
            fill,
            need_corners,
            primitive,
        );
        program.run(machine)
    }

    /// Predicted exchange cost in cycles without performing any data
    /// movement — used by the baselines and cost ablations.
    pub fn exchange_cost(
        cfg: &MachineConfig,
        sub_rows: usize,
        sub_cols: usize,
        pad: usize,
        need_corners: bool,
        primitive: ExchangePrimitive,
    ) -> u64 {
        if pad == 0 {
            return 0;
        }
        let shape = ExchangeShape {
            north: pad * sub_cols,
            south: pad * sub_cols,
            east: pad * sub_rows,
            west: pad * sub_rows,
        };
        let mut cycles = match primitive {
            ExchangePrimitive::News => news_exchange_cycles(cfg, shape),
            ExchangePrimitive::OldPerDirection => old_exchange_cycles(cfg, shape),
        };
        if need_corners {
            cycles += corner_exchange_cycles(cfg, pad * pad);
        }
        cycles
    }
}

/// One node-to-node copy of a contiguous word run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CopyOp {
    from: NodeId,
    src: usize,
    to: NodeId,
    dst: usize,
    len: usize,
}

/// A fully precomputed halo exchange: every neighbor lookup, address
/// computation, and cycle charge done once, leaving only data movement
/// per run.
///
/// The paper performs "interprocessor communication for an entire stencil
/// computation … at the beginning all at once" (§5.1); an
/// `ExchangeProgram` is that step compiled ahead of time for a fixed
/// (buffer, grid, boundary, primitive) so iterative workloads replay it
/// without rebuilding. Every copy reads subgrid interior and writes the
/// halo ring — disjoint regions — so the recorded order is immaterial to
/// the result; it nevertheless preserves the order
/// [`HaloBuffer::exchange_with_fill`] historically used, keeping the two
/// paths step-for-step identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeProgram {
    copies: Vec<CopyOp>,
    /// Global-edge fill spans `(node, addr, len)`, written after the
    /// copies (EOSHIFT semantics). Overlapping spans all write `fill`.
    fills: Vec<(NodeId, usize, usize)>,
    fill: f32,
    cycles: u64,
    /// Machine-total words moved by the NEWS edge step (the prefix of
    /// `copies` built before the corner step) — `words_moved()` minus
    /// this is the corner traffic.
    edge_words: usize,
    /// The address span every copy and fill stores into (the halo
    /// buffer), stamped by each run.
    writes: Range<usize>,
}

impl ExchangeProgram {
    /// Compiles the exchange for `halo` on `grid`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        halo: &HaloBuffer,
        grid: NodeGrid,
        cfg: &MachineConfig,
        boundary: Boundary,
        fill: f32,
        need_corners: bool,
        primitive: ExchangePrimitive,
    ) -> Self {
        let p = halo.pad;
        let mut copies = Vec::new();
        let mut fills = Vec::new();
        let mut cycles = 0;
        let mut edge_words = 0;
        if p > 0 {
            // Step one: edge sections from the four NEWS neighbors.
            for node in grid.iter() {
                let north = grid.neighbor(node, Direction::North);
                let south = grid.neighbor(node, Direction::South);
                let west = grid.neighbor(node, Direction::West);
                let east = grid.neighbor(node, Direction::East);
                // North halo rows 0..p come from the north neighbor's
                // last p subgrid rows; south likewise mirrored.
                for i in 0..p {
                    copies.push(CopyOp {
                        from: north,
                        src: halo.addr(halo.sub_rows + i, p),
                        to: node,
                        dst: halo.addr(i, p),
                        len: halo.sub_cols,
                    });
                    copies.push(CopyOp {
                        from: south,
                        src: halo.addr(p + i, p),
                        to: node,
                        dst: halo.addr(p + halo.sub_rows + i, p),
                        len: halo.sub_cols,
                    });
                }
                // West halo columns come from the west neighbor's last p
                // columns; east likewise.
                for lr in 0..halo.sub_rows {
                    copies.push(CopyOp {
                        from: west,
                        src: halo.addr(p + lr, halo.sub_cols),
                        to: node,
                        dst: halo.addr(p + lr, 0),
                        len: p,
                    });
                    copies.push(CopyOp {
                        from: east,
                        src: halo.addr(p + lr, p),
                        to: node,
                        dst: halo.addr(p + lr, p + halo.sub_cols),
                        len: p,
                    });
                }
            }
            let shape = ExchangeShape {
                north: p * halo.sub_cols,
                south: p * halo.sub_cols,
                east: p * halo.sub_rows,
                west: p * halo.sub_rows,
            };
            cycles = match primitive {
                ExchangePrimitive::News => news_exchange_cycles(cfg, shape),
                ExchangePrimitive::OldPerDirection => old_exchange_cycles(cfg, shape),
            };
            edge_words = copies.iter().map(|c| c.len).sum();

            // Step two: corner sections from the four diagonal neighbors.
            if need_corners {
                for node in grid.iter() {
                    for (vert, horiz) in [
                        (Direction::North, Direction::West),
                        (Direction::North, Direction::East),
                        (Direction::South, Direction::West),
                        (Direction::South, Direction::East),
                    ] {
                        let from = grid.diagonal_neighbor(node, vert, horiz);
                        // My NW corner halo holds the diagonal neighbor's
                        // SE interior corner, and so on.
                        let (dst_r0, src_r0) = match vert {
                            Direction::North => (0, halo.sub_rows),
                            _ => (p + halo.sub_rows, p),
                        };
                        let (dst_c0, src_c0) = match horiz {
                            Direction::West => (0, halo.sub_cols),
                            _ => (p + halo.sub_cols, p),
                        };
                        for i in 0..p {
                            copies.push(CopyOp {
                                from,
                                src: halo.addr(src_r0 + i, src_c0),
                                to: node,
                                dst: halo.addr(dst_r0 + i, dst_c0),
                                len: p,
                            });
                        }
                    }
                }
                cycles += corner_exchange_cycles(cfg, p * p);
            }

            // Global-edge fill spans (EOSHIFT): full-width strips so
            // corner blocks beyond either boundary are covered too.
            if boundary == Boundary::ZeroFill {
                fills = boundary_fill_spans(halo, grid);
            }
        }
        let writes = hull(
            copies
                .iter()
                .map(|c| (c.dst, c.len))
                .chain(fills.iter().map(|&(_, addr, len)| (addr, len))),
        );
        ExchangeProgram {
            copies,
            fills,
            fill,
            cycles,
            edge_words,
            writes,
        }
    }

    /// The communication cycles one run charges.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total words one run copies between nodes, summed over the whole
    /// machine (boundary fill spans excluded) — the data-movement cost a
    /// steady-state iteration pays for this exchange.
    pub fn words_moved(&self) -> usize {
        self.copies.iter().map(|c| c.len).sum()
    }

    /// Machine-total words the NEWS edge step of one run copies.
    pub fn edge_words(&self) -> usize {
        self.edge_words
    }

    /// Machine-total words the diagonal corner step of one run copies
    /// (zero when corners are skipped).
    pub fn corner_words(&self) -> usize {
        self.words_moved() - self.edge_words
    }

    /// Executes the exchange and returns the cycles charged. Stamps the
    /// halo buffer it writes.
    pub fn run(&self, machine: &mut Machine) -> u64 {
        let _t = cmcc_obs::trace::scope(
            cmcc_obs::trace::TraceOp::HaloExchange,
            self.words_moved() as u64,
        );
        cmcc_obs::add(cmcc_obs::Counter::HaloExchanges, 1);
        cmcc_obs::add(cmcc_obs::Counter::ExchangeEdgeWords, self.edge_words as u64);
        cmcc_obs::add(
            cmcc_obs::Counter::ExchangeCornerWords,
            self.corner_words() as u64,
        );
        let mems = machine.write_nodes([self.writes.clone()]);
        for op in &self.copies {
            copy_between(mems, op.from.0, op.src, op.to.0, op.dst, op.len);
        }
        for &(node, addr, len) in &self.fills {
            mems[node.0].fill_range(addr, len, self.fill);
        }
        self.cycles
    }
}

/// The `(node, addr, len)` spans of `halo` that lie beyond the global
/// array edge — the region a [`Boundary::ZeroFill`] exchange overwrites
/// with the fill value after its copies. Full-width strips on the
/// north/south edges so corner blocks beyond either boundary are
/// covered too; the overlap is harmless (every span writes the same
/// value).
fn boundary_fill_spans(halo: &HaloBuffer, grid: NodeGrid) -> Vec<(NodeId, usize, usize)> {
    let p = halo.pad;
    let mut fills = Vec::new();
    if p == 0 {
        return fills;
    }
    let padded_cols = halo.sub_cols + 2 * p;
    for node in grid.iter() {
        let (gr, gc) = grid.coords(node);
        if gr == 0 {
            for r in 0..p {
                fills.push((node, halo.addr(r, 0), padded_cols));
            }
        }
        if gr == grid.rows() - 1 {
            for r in 0..p {
                fills.push((node, halo.addr(p + halo.sub_rows + r, 0), padded_cols));
            }
        }
        if gc == 0 {
            for r in 0..halo.sub_rows + 2 * p {
                fills.push((node, halo.addr(r, 0), p));
            }
        }
        if gc == grid.cols() - 1 {
            for r in 0..halo.sub_rows + 2 * p {
                fills.push((node, halo.addr(r, p + halo.sub_cols), p));
            }
        }
    }
    fills
}

/// The smallest address span covering every `(addr, len)` run (empty
/// when there are none).
fn hull(runs: impl Iterator<Item = (usize, usize)>) -> Range<usize> {
    runs.fold(None, |acc: Option<Range<usize>>, (addr, len)| {
        Some(match acc {
            Some(r) => r.start.min(addr)..r.end.max(addr + len),
            None => addr..addr + len,
        })
    })
    .unwrap_or(0..0)
}

/// The lane word where the `len`-word node-memory run at `addr` starts
/// in `view`, or `None` when the run is not wholly inside one viewed
/// range.
pub(crate) fn lane_run(view: &LaneView, addr: usize, len: usize) -> Option<usize> {
    let (word, range) = view.locate(addr)?;
    (addr + len <= range.node_base + range.len).then_some(word)
}

/// The beyond-global-edge frame of one padded buffer, as constant-value
/// fills addressed in lane words.
///
/// Temporal tiling needs this as a *standalone* step: each fused inner
/// step writes its whole extended region — including positions beyond
/// the global edge, which under [`Boundary::ZeroFill`] must read as the
/// fill value in the next step. Running the fill program after every
/// non-final step restores that invariant (under [`Boundary::Circular`]
/// the span list is empty and nothing needs restoring — the margin
/// recomputes the wrapped values bit-identically).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneFillProgram {
    fills: Vec<(usize, usize, usize)>,
    fill: f32,
}

impl LaneFillProgram {
    /// The beyond-global-edge fill frame of `halo` under `boundary` —
    /// empty for [`Boundary::Circular`], the spans a
    /// [`Boundary::ZeroFill`] exchange fills otherwise — in the lane
    /// word space of `view`. Returns `None` when any span is not fully
    /// inside one viewed range.
    pub fn boundary(
        halo: &HaloBuffer,
        grid: NodeGrid,
        boundary: Boundary,
        fill: f32,
        view: &LaneView,
    ) -> Option<Self> {
        let spans = match boundary {
            Boundary::ZeroFill => boundary_fill_spans(halo, grid),
            Boundary::Circular => Vec::new(),
        };
        let fills = spans
            .into_iter()
            .map(|(node, addr, len)| Some((node.0, lane_run(view, addr, len)?, len)))
            .collect::<Option<_>>()?;
        Some(LaneFillProgram { fills, fill })
    }

    /// Executes the fills on the mirror.
    pub fn run(&self, mirror: &mut LaneMirror) {
        for &(node, word, len) in &self.fills {
            mirror.fill_lane_run(node, word, len, self.fill);
        }
    }
}

/// A batch of lane-domain copies of one contiguous word run: node
/// `from0 + i` to node `to0 + i` for every `i < count`, all sharing the
/// same source and destination word runs.
///
/// Halo exchanges emit the same word run for every node along an edge,
/// with source and destination lanes each advancing by one node — so
/// translate-time coalescing turns per-node scalar copies into whole
/// lane sub-slice moves ([`cmcc_cm2::lane::LaneMirror::copy_lane_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneSpanCopy {
    from0: usize,
    to0: usize,
    count: usize,
    src: usize,
    dst: usize,
    len: usize,
}

/// An [`ExchangeProgram`] translated onto a [`LaneMirror`]: every copy's
/// node-memory addresses mapped through a [`LaneView`] into lane words,
/// so the halo exchange moves words directly between lane columns of the
/// mirror and never touches `NodeMemory`.
///
/// This is the communication half of the lane-resident steady state: an
/// iterative workload keeps its operands in the mirror across time steps,
/// and the exchange — including the skippable corner step, which is baked
/// into the source program's copy list — runs in the same address space
/// the kernels execute in. Cycle accounting is inherited unchanged from
/// the source program, so `Measurement`s are identical to the node-domain
/// path.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneExchangeProgram {
    copies: Vec<LaneSpanCopy>,
    /// Global-edge fill spans `(node, lane word, len)`, written after the
    /// copies (EOSHIFT semantics), as in [`ExchangeProgram`].
    fills: Vec<(usize, usize, usize)>,
    fill: f32,
    cycles: u64,
    /// Edge-step words, inherited verbatim from the source program.
    edge_words: usize,
}

impl LaneExchangeProgram {
    /// Translates `program`'s copies and fills into the lane word space
    /// of `view`.
    ///
    /// Returns `None` when any copied or filled run is not fully inside
    /// one viewed range — then the plan cannot run the lane body. (For a
    /// plan that mirrors its halo buffers whole, every run maps; the
    /// guard only matters for hand-built views.)
    pub fn translate(program: &ExchangeProgram, view: &LaneView) -> Option<Self> {
        // Exchange copies commute: every source run is interior words
        // (never written by the exchange) and every destination run is
        // a halo word written exactly once, so the copy list can be
        // reordered freely. The source program walks nodes in the outer
        // loop; regrouping by word run first lines up the adjacent-node
        // copies of one edge direction so the coalescing pass below can
        // batch them into spans.
        let mut mapped = Vec::with_capacity(program.copies.len());
        for op in &program.copies {
            let src = lane_run(view, op.src, op.len)?;
            let dst = lane_run(view, op.dst, op.len)?;
            mapped.push((src, dst, op));
        }
        mapped.sort_by_key(|&(src, dst, op)| (src, dst, op.len, op.from.0));
        let mut copies: Vec<LaneSpanCopy> = Vec::new();
        for (src, dst, op) in mapped {
            // Coalesce with the previous batch when the word runs match
            // and both lanes advance by exactly one node.
            if let Some(last) = copies.last_mut() {
                if last.src == src
                    && last.dst == dst
                    && last.len == op.len
                    && op.from.0 == last.from0 + last.count
                    && op.to.0 == last.to0 + last.count
                {
                    last.count += 1;
                    continue;
                }
            }
            copies.push(LaneSpanCopy {
                from0: op.from.0,
                to0: op.to.0,
                count: 1,
                src,
                dst,
                len: op.len,
            });
        }
        let fills = program
            .fills
            .iter()
            .map(|&(node, addr, len)| Some((node.0, lane_run(view, addr, len)?, len)))
            .collect::<Option<Vec<_>>>()?;
        Some(LaneExchangeProgram {
            copies,
            fills,
            fill: program.fill,
            cycles: program.cycles,
            edge_words: program.edge_words,
        })
    }

    /// This program with the lane words of two equal-length ranges,
    /// starting at words `a` and `b`, exchanged: exactly what
    /// [`Self::translate`] returns through a view in which those two
    /// ranges trade lane words (every run lies inside one range, and a
    /// constant shift keeps the copy order and coalescing).
    ///
    /// # Panics
    ///
    /// Panics if a run straddles a swapped range's edge.
    pub fn with_ranges_swapped(&self, a: usize, b: usize, len: usize) -> Self {
        let swap = |word: usize, run: usize| {
            let inside = |base: usize| (base..base + len).contains(&word);
            let end_inside = |base: usize| (base..base + len).contains(&(word + run.max(1) - 1));
            assert!(
                inside(a) == end_inside(a) && inside(b) == end_inside(b),
                "an exchange run straddles a swapped range"
            );
            if inside(a) {
                word - a + b
            } else if inside(b) {
                word - b + a
            } else {
                word
            }
        };
        LaneExchangeProgram {
            copies: self
                .copies
                .iter()
                .map(|c| LaneSpanCopy {
                    src: swap(c.src, c.len),
                    dst: swap(c.dst, c.len),
                    ..*c
                })
                .collect(),
            fills: self
                .fills
                .iter()
                .map(|&(node, word, run)| (node, swap(word, run), run))
                .collect(),
            fill: self.fill,
            cycles: self.cycles,
            edge_words: self.edge_words,
        }
    }

    /// The communication cycles one run charges (the source program's).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total words one run copies between lane columns, summed over the
    /// whole machine — identical to the source program's
    /// [`ExchangeProgram::words_moved`].
    pub fn words_moved(&self) -> usize {
        self.copies.iter().map(|c| c.count * c.len).sum()
    }

    /// Number of batched span copies one run issues (each moving
    /// `count × len` words); always at most the source program's copy
    /// count, and strictly fewer whenever coalescing found a run of
    /// adjacent nodes.
    pub fn span_count(&self) -> usize {
        self.copies.len()
    }

    /// Machine-total words the NEWS edge step of one run copies.
    pub fn edge_words(&self) -> usize {
        self.edge_words
    }

    /// Machine-total words the diagonal corner step of one run copies
    /// (zero when corners are skipped).
    pub fn corner_words(&self) -> usize {
        self.words_moved() - self.edge_words
    }

    /// Executes the exchange on the mirror and returns the cycles
    /// charged.
    ///
    /// # Panics
    ///
    /// Panics if a node index or lane word is outside the mirror — the
    /// mirror must have been shaped for the same machine and view the
    /// program was translated against.
    pub fn run(&self, mirror: &mut LaneMirror) -> u64 {
        let _t = cmcc_obs::trace::scope(
            cmcc_obs::trace::TraceOp::HaloExchange,
            self.words_moved() as u64,
        );
        cmcc_obs::add(cmcc_obs::Counter::HaloExchanges, 1);
        cmcc_obs::add(cmcc_obs::Counter::ExchangeEdgeWords, self.edge_words as u64);
        cmcc_obs::add(
            cmcc_obs::Counter::ExchangeCornerWords,
            self.corner_words() as u64,
        );
        for op in &self.copies {
            mirror.copy_lane_span(op.from0, op.to0, op.count, op.src, op.dst, op.len);
        }
        for &(node, word, len) in &self.fills {
            mirror.fill_lane_run(node, word, len, self.fill);
        }
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcc_cm2::config::MachineConfig;

    /// 2×2 nodes, 4×4 global array (2×2 subgrids), filled with
    /// `10·r + c`.
    fn setup(pad: usize) -> (Machine, CmArray, HaloBuffer) {
        let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
        let a = CmArray::new(&mut m, 4, 4).unwrap();
        a.fill_with(&mut m, |r, c| (10 * r + c) as f32);
        let h = HaloBuffer::new(&mut m, 2, 2, pad).unwrap();
        h.fill_interior(&mut m, &a);
        (m, a, h)
    }

    /// Reads the halo buffer of `node` at logical subgrid coordinates
    /// (halo at negatives).
    fn read(m: &Machine, h: &HaloBuffer, node: cmcc_cm2::grid::NodeId, r: i64, c: i64) -> f32 {
        m.mem(node).read(h.layout().addr(r, c))
    }

    #[test]
    fn interior_is_copied() {
        let (m, _, h) = setup(1);
        let n = m.grid().id(1, 1); // global rows 2..4, cols 2..4
        assert_eq!(read(&m, &h, n, 0, 0), 22.0);
        assert_eq!(read(&m, &h, n, 1, 1), 33.0);
    }

    #[test]
    fn circular_exchange_wraps_the_torus() {
        let (mut m, _, h) = setup(1);
        h.exchange(&mut m, Boundary::Circular, true, ExchangePrimitive::News);
        let n00 = m.grid().id(0, 0); // global rows 0..2, cols 0..2
                                     // North halo of node (0,0) wraps to global row 3.
        assert_eq!(read(&m, &h, n00, -1, 0), 30.0);
        assert_eq!(read(&m, &h, n00, -1, 1), 31.0);
        // West halo wraps to global column 3.
        assert_eq!(read(&m, &h, n00, 0, -1), 3.0);
        // South halo is global row 2.
        assert_eq!(read(&m, &h, n00, 2, 0), 20.0);
        // East halo is global column 2.
        assert_eq!(read(&m, &h, n00, 1, 2), 12.0);
        // NW corner wraps both ways: global (3, 3).
        assert_eq!(read(&m, &h, n00, -1, -1), 33.0);
        // SE corner: global (2, 2).
        assert_eq!(read(&m, &h, n00, 2, 2), 22.0);
    }

    #[test]
    fn skipping_corners_leaves_them_unwritten() {
        let (mut m, _, h) = setup(1);
        h.exchange(&mut m, Boundary::Circular, false, ExchangePrimitive::News);
        let n00 = m.grid().id(0, 0);
        // Edges arrive…
        assert_eq!(read(&m, &h, n00, -1, 0), 30.0);
        // …but the corner stays at its initial zero.
        assert_eq!(read(&m, &h, n00, -1, -1), 0.0);
    }

    #[test]
    fn zero_fill_clears_global_edges_only() {
        let (mut m, _, h) = setup(1);
        h.exchange(&mut m, Boundary::ZeroFill, true, ExchangePrimitive::News);
        let n00 = m.grid().id(0, 0);
        // Global north edge: zeros.
        assert_eq!(read(&m, &h, n00, -1, 0), 0.0);
        assert_eq!(read(&m, &h, n00, -1, -1), 0.0);
        // Interior-facing halos keep real data.
        assert_eq!(read(&m, &h, n00, 2, 0), 20.0);
        assert_eq!(read(&m, &h, n00, 1, 2), 12.0);
        // SE corner faces the interior diagonal: real data.
        assert_eq!(read(&m, &h, n00, 2, 2), 22.0);
        // Node (1,1): its south and east halos are global edges.
        let n11 = m.grid().id(1, 1);
        assert_eq!(read(&m, &h, n11, 2, 0), 0.0);
        assert_eq!(read(&m, &h, n11, 0, 2), 0.0);
        assert_eq!(read(&m, &h, n11, -1, -1), 11.0);
    }

    #[test]
    fn pad_two_exchanges_two_deep() {
        let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
        let a = CmArray::new(&mut m, 8, 8).unwrap();
        a.fill_with(&mut m, |r, c| (10 * r + c) as f32);
        let h = HaloBuffer::new(&mut m, 4, 4, 2).unwrap();
        h.fill_interior(&mut m, &a);
        h.exchange(&mut m, Boundary::Circular, true, ExchangePrimitive::News);
        let n00 = m.grid().id(0, 0);
        assert_eq!(read(&m, &h, n00, -2, 0), 60.0); // global row 6
        assert_eq!(read(&m, &h, n00, -1, 3), 73.0); // row 7, col 3
        assert_eq!(read(&m, &h, n00, 0, -2), 6.0); // col 6
        assert_eq!(read(&m, &h, n00, -2, -2), 66.0); // corner (6, 6)
        assert_eq!(read(&m, &h, n00, 5, 5), 55.0); // SE corner block
    }

    #[test]
    fn halo_deeper_than_subgrid_rejected() {
        let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
        assert!(matches!(
            HaloBuffer::new(&mut m, 2, 8, 3),
            Err(RuntimeError::SubgridTooSmall { .. })
        ));
    }

    #[test]
    fn cost_model_matches_primitives() {
        let cfg = MachineConfig::test_board_16();
        let news = HaloBuffer::exchange_cost(&cfg, 64, 64, 1, false, ExchangePrimitive::News);
        let old =
            HaloBuffer::exchange_cost(&cfg, 64, 64, 1, false, ExchangePrimitive::OldPerDirection);
        assert!(old > news);
        let with_corners =
            HaloBuffer::exchange_cost(&cfg, 64, 64, 1, true, ExchangePrimitive::News);
        assert!(with_corners > news);
        assert_eq!(
            HaloBuffer::exchange_cost(&cfg, 64, 64, 0, true, ExchangePrimitive::News),
            0
        );
    }

    #[test]
    fn lane_exchange_matches_node_exchange() {
        for (boundary, corners) in [
            (Boundary::Circular, true),
            (Boundary::Circular, false),
            (Boundary::ZeroFill, true),
            (Boundary::ZeroFill, false),
        ] {
            // Node-domain reference.
            let (mut node_m, _, h) = setup(1);
            let program = ExchangeProgram::new(
                &h,
                node_m.grid(),
                node_m.config(),
                boundary,
                0.5,
                corners,
                ExchangePrimitive::News,
            );
            let node_cycles = program.run(&mut node_m);

            // Lane-domain: an identical machine, with the exchange
            // running purely on the mirror.
            let (mut lane_m, _, h2) = setup(1);
            let view = LaneView::new(&[(h2.field().base(), h2.field().len(), true)]).unwrap();
            let lane = LaneExchangeProgram::translate(&program, &view)
                .expect("a whole-buffer view maps every run");
            assert_eq!(lane.words_moved(), program.words_moved());
            assert_eq!(lane.cycles(), program.cycles());
            // Translate-time coalescing must have batched adjacent-node
            // copies: the edge steps walk whole board rows/columns, so
            // strictly fewer spans than source copies.
            assert!(
                lane.span_count() < program.copies.len(),
                "no spans coalesced: {} spans from {} copies",
                lane.span_count(),
                program.copies.len()
            );
            let mut mirror = LaneMirror::new();
            {
                let (_, mems) = lane_m.exec_parts_mut();
                mirror.ensure(view.words(), mems.len());
                mirror.gather(&view, mems);
                assert_eq!(lane.run(&mut mirror), node_cycles);
                mirror.scatter(&view, mems);
            }
            for node in node_m.grid().iter() {
                assert_eq!(
                    node_m.mem(node).field(h.field()),
                    lane_m.mem(node).field(h2.field()),
                    "halo of {node} diverged ({boundary:?}, corners={corners})"
                );
            }
        }
    }

    /// Swapping two equal-length ranges' lane words in a translated
    /// exchange gives exactly the translation through a view in which
    /// the two ranges trade lane words — for two adjacent ranges, the
    /// view listing them the other way round.
    #[test]
    fn swapped_exchange_matches_translation_with_the_ranges_traded() {
        for (boundary, corners) in [(Boundary::Circular, true), (Boundary::ZeroFill, false)] {
            let (mut m, _, h) = setup(2);
            let other = HaloBuffer::new(&mut m, 2, 2, 2).unwrap();
            let program = ExchangeProgram::new(
                &h,
                m.grid(),
                m.config(),
                boundary,
                0.5,
                corners,
                ExchangePrimitive::News,
            );
            let len = h.field().len();
            let (hb, ob) = (h.field().base(), other.field().base());
            let view = LaneView::new(&[(hb, len, false), (ob, len, false)]).unwrap();
            let traded = LaneView::new(&[(ob, len, false), (hb, len, false)]).unwrap();
            let direct = LaneExchangeProgram::translate(&program, &view).unwrap();
            let swapped = LaneExchangeProgram::translate(&program, &traded).unwrap();
            assert_ne!(direct, swapped);
            assert_eq!(direct.with_ranges_swapped(0, len, len), swapped);
            assert_eq!(swapped.with_ranges_swapped(len, 0, len), direct);
        }
    }

    #[test]
    fn lane_exchange_translation_requires_whole_runs() {
        let (m, _, h) = setup(1);
        let program = ExchangeProgram::new(
            &h,
            m.grid(),
            m.config(),
            Boundary::Circular,
            0.0,
            true,
            ExchangePrimitive::News,
        );
        assert!(program.words_moved() > 0);
        // A view that splits the halo buffer mid-run cannot host the
        // exchange: some copy's word run crosses the seam.
        let base = h.field().base();
        let len = h.field().len();
        let split = LaneView::new(&[(base, 10, true), (base + 10, len - 10, true)]).unwrap();
        assert!(LaneExchangeProgram::translate(&program, &split).is_none());
    }

    #[test]
    fn fill_program_writes_exactly_the_beyond_edge_frame() {
        // Poison the whole padded buffer, run the lane fill program on a
        // mirror of it, and check that beyond-global-edge positions (and
        // only those) were overwritten — on nodes at every board
        // position. Circular boundaries have nothing to restore.
        for (boundary, fill) in [(Boundary::ZeroFill, 7.5), (Boundary::Circular, -9.0)] {
            let (mut m, _, h) = setup(1);
            for node in m.grid().iter() {
                m.mem_mut(node)
                    .fill_range(h.field().base(), h.field().len(), -9.0);
            }
            let view = LaneView::new(&[(h.field().base(), h.field().len(), true)]).unwrap();
            let grid = m.grid();
            let program = LaneFillProgram::boundary(&h, grid, boundary, 7.5, &view)
                .expect("a whole-buffer view maps every span");
            let mut mirror = LaneMirror::new();
            {
                let (_, mems) = m.exec_parts_mut();
                mirror.ensure(view.words(), mems.len());
                mirror.gather(&view, mems);
                program.run(&mut mirror);
                mirror.scatter(&view, mems);
            }
            for node in grid.iter() {
                let (gr, gc) = grid.coords(node);
                for r in -1..3_i64 {
                    for c in -1..3_i64 {
                        let beyond = (r < 0 && gr == 0)
                            || (r >= 2 && gr == grid.rows() - 1)
                            || (c < 0 && gc == 0)
                            || (c >= 2 && gc == grid.cols() - 1);
                        let want = if beyond { fill } else { -9.0 };
                        assert_eq!(
                            read(&m, &h, node, r, c),
                            want,
                            "{boundary:?}: node {node} logical ({r}, {c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_cost_agrees_with_exchange() {
        let (mut m, _, h) = setup(1);
        let charged = h.exchange(&mut m, Boundary::Circular, true, ExchangePrimitive::News);
        let predicted =
            HaloBuffer::exchange_cost(m.config(), 2, 2, 1, true, ExchangePrimitive::News);
        assert_eq!(charged, predicted);
    }
}
