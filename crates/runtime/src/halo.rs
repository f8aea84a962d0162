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
//! see DESIGN.md.) The same contiguous layout, placed at a lane word
//! instead of a node address ([`Padded`]), is a lane buffer of an
//! execution plan's mirror; the exchange and fill programs are generated
//! against a placement, so one generator serves both address spaces.

use crate::array::CmArray;
use crate::error::RuntimeError;
use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::exec::FieldLayout;
use cmcc_cm2::grid::{Direction, NodeGrid, NodeId};
use cmcc_cm2::lane::{LaneMirror, RectCopy};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::memory::{copy_between, Field};
use cmcc_cm2::news::{corner_exchange_cycles, exchange_cycles, ExchangeShape};
use cmcc_core::stencil::Boundary;
use std::ops::Range;

/// A padded buffer's placement: a `sub_rows × sub_cols` subgrid ringed
/// `pad` deep on all four sides, row-major from `base` — a node-memory
/// address for a [`HaloBuffer`], a lane word for a lane buffer of an
/// execution plan's mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Padded {
    base: usize,
    pad: usize,
    sub_rows: usize,
    sub_cols: usize,
}

impl Padded {
    /// Places a `pad`-deep ring around a `sub_rows × sub_cols` subgrid
    /// at `base`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SubgridTooSmall`] when the halo is deeper than the
    /// subgrid (one exchange could not fill it).
    pub fn new(
        base: usize,
        (sub_rows, sub_cols): (usize, usize),
        pad: usize,
    ) -> Result<Self, RuntimeError> {
        if pad > sub_rows || pad > sub_cols {
            return Err(RuntimeError::SubgridTooSmall {
                pad,
                sub_rows,
                sub_cols,
            });
        }
        Ok(Padded {
            base,
            pad,
            sub_rows,
            sub_cols,
        })
    }

    /// The address (or lane word) of the first word.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Words the buffer spans: `(sub_rows + 2·pad) × (sub_cols + 2·pad)`.
    pub fn words(&self) -> usize {
        (self.sub_rows + 2 * self.pad) * (self.sub_cols + 2 * self.pad)
    }

    /// Address arithmetic: logical subgrid coordinates, halo at negative
    /// offsets.
    pub fn layout(&self) -> FieldLayout {
        FieldLayout {
            base: self.base,
            row_stride: self.sub_cols + 2 * self.pad,
            row_offset: self.pad as i64,
            col_offset: self.pad as i64,
        }
    }

    /// The copy between `array`'s subgrid (the node side) and this
    /// buffer's interior (the lane side): a lane buffer's refresh from
    /// `array` or the scatter of its interior into `array` — or, placed at
    /// a node address, [`HaloBuffer::fill_interior`].
    pub fn interior_copy(&self, array: &CmArray) -> RectCopy {
        RectCopy {
            node0: array.field().base(),
            node_stride: array.sub_cols(),
            lane0: self.addr(self.pad, self.pad),
            lane_stride: self.sub_cols + 2 * self.pad,
            rows: array.sub_rows(),
            cols: array.sub_cols(),
        }
    }

    fn addr(&self, padded_row: usize, padded_col: usize) -> usize {
        self.base + padded_row * (self.sub_cols + 2 * self.pad) + padded_col
    }
}

/// A padded per-node buffer holding a subgrid plus its halo ring.
#[derive(Debug, Clone, Copy)]
pub struct HaloBuffer {
    field: Field,
    at: Padded,
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
        let at = Padded::new(0, (sub_rows, sub_cols), pad)?;
        let field = machine.alloc_field_persistent(at.words())?;
        Ok(HaloBuffer {
            field,
            at: Padded {
                base: field.base(),
                ..at
            },
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

    /// Where the buffer lies in node memory.
    pub fn placement(&self) -> Padded {
        self.at
    }

    /// Halo depth.
    pub fn pad(&self) -> usize {
        self.at.pad
    }

    /// Address arithmetic: logical subgrid coordinates, halo at negative
    /// offsets.
    pub fn layout(&self) -> FieldLayout {
        self.at.layout()
    }

    /// Words of temporary storage per node (the space cost of padding,
    /// §5.1: "There is a cost in temporary memory space").
    pub fn words(&self) -> usize {
        self.field.len()
    }

    /// Copies each node's subgrid of `src` into the buffer interior,
    /// stamping the interior rows as written.
    ///
    /// SIMD addressing makes the copy plan node-independent, so the
    /// addresses are computed once and replayed on every node.
    pub fn fill_interior(&self, machine: &mut Machine, src: &CmArray) -> usize {
        assert_eq!(src.sub_rows(), self.at.sub_rows);
        assert_eq!(src.sub_cols(), self.at.sub_cols);
        let RectCopy {
            node0: src0,
            node_stride: src_stride,
            lane0: dst0,
            lane_stride: dst_stride,
            rows,
            cols,
        } = self.at.interior_copy(src);
        let _t = cmcc_obs::trace::scope(
            cmcc_obs::trace::TraceOp::InteriorRefresh,
            (rows * cols) as u64,
        );
        let interior = dst0..dst0 + (rows - 1) * dst_stride + cols;
        let mems = machine.write_nodes([interior]);
        let words = rows * cols * mems.len();
        for mem in mems {
            for lr in 0..rows {
                let src = src0 + lr * src_stride;
                mem.copy_within(src..src + cols, dst0 + lr * dst_stride);
            }
        }
        cmcc_obs::add(cmcc_obs::Counter::InteriorRefreshWords, words as u64);
        words
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
/// (placement, grid, machine config, boundary) so iterative workloads
/// replay it without rebuilding: step one exchanges edge sections with
/// the four NEWS neighbors simultaneously, step two (skipped when
/// `need_corners` is false) the four corner sections with the diagonal
/// neighbors, and under [`Boundary::ZeroFill`] the halo beyond the global
/// array edge then takes the fill value (Fortran's
/// `EOSHIFT(…, BOUNDARY=v)`) instead of the torus-wrapped data. Every
/// copy reads subgrid interior and writes the halo ring — disjoint
/// regions — so the order the copies are recorded in (node by node,
/// edges before corners) is immaterial to the result.
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
    /// Compiles the exchange of the buffer placed at `halo` on `grid`:
    /// its node-memory form for a [`HaloBuffer`]'s placement, the copy
    /// list of a [`LaneExchangeProgram`] for a lane buffer's. `cfg`'s
    /// grid primitive prices it.
    pub fn new(
        halo: &Padded,
        grid: NodeGrid,
        cfg: &MachineConfig,
        boundary: Boundary,
        fill: f32,
        need_corners: bool,
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
            cycles = exchange_cycles(
                cfg,
                ExchangeShape::symmetric(p * halo.sub_cols, p * halo.sub_rows),
            );
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
        let mut mems = machine.write_nodes([self.writes.clone()]);
        for op in &self.copies {
            copy_between(&mut mems, op.from.0, op.src, op.to.0, op.dst, op.len);
        }
        for &(node, addr, len) in &self.fills {
            mems[node.0][addr..addr + len].fill(self.fill);
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
fn boundary_fill_spans(halo: &Padded, grid: NodeGrid) -> Vec<(NodeId, usize, usize)> {
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
    /// The beyond-global-edge fill frame of the lane buffer placed at
    /// `halo` under `boundary` — empty for [`Boundary::Circular`], the
    /// spans a [`Boundary::ZeroFill`] exchange fills otherwise.
    pub fn boundary(halo: &Padded, grid: NodeGrid, boundary: Boundary, fill: f32) -> Self {
        let fills = match boundary {
            Boundary::ZeroFill => boundary_fill_spans(halo, grid)
                .into_iter()
                .map(|(node, word, len)| (node.0, word, len))
                .collect(),
            Boundary::Circular => Vec::new(),
        };
        LaneFillProgram { fills, fill }
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
/// coalescing turns per-node scalar copies into whole lane sub-slice
/// moves ([`cmcc_cm2::lane::LaneMirror::copy_lane_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneSpanCopy {
    from0: usize,
    to0: usize,
    count: usize,
    src: usize,
    dst: usize,
    len: usize,
}

/// The halo exchange of a lane buffer: an [`ExchangeProgram`] generated
/// at the buffer's lane base, its copies batched into span copies, so
/// the exchange moves words directly between lane columns of the
/// [`LaneMirror`] and never touches node memory.
///
/// This is the communication half of the lane-resident steady state: an
/// iterative workload keeps its operands in the mirror across time steps,
/// and the exchange — including the skippable corner step, which is baked
/// into the generated copy list — runs in the same address space
/// the kernels execute in. Cycle accounting comes from the same
/// generator, so `Measurement`s are identical to the node-domain path.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneExchangeProgram {
    copies: Vec<LaneSpanCopy>,
    /// Global-edge fill spans `(node, lane word, len)`, written after the
    /// copies (EOSHIFT semantics), as in [`ExchangeProgram`].
    fills: Vec<(usize, usize, usize)>,
    fill: f32,
    cycles: u64,
    /// Edge-step words, as the generated program counts them.
    edge_words: usize,
}

impl LaneExchangeProgram {
    /// Batches `program` — generated at a lane buffer's base, so its
    /// addresses are lane words — into span copies.
    pub fn new(program: &ExchangeProgram) -> Self {
        // Exchange copies commute: every source run is interior words
        // (never written by the exchange) and every destination run is
        // a halo word written exactly once, so the copy list can be
        // reordered freely. The program walks nodes in the outer loop;
        // regrouping by word run first lines up the adjacent-node copies
        // of one edge direction so the coalescing pass below can batch
        // them into spans.
        let mut sorted: Vec<&CopyOp> = program.copies.iter().collect();
        sorted.sort_by_key(|op| (op.src, op.dst, op.len, op.from.0));
        let mut copies: Vec<LaneSpanCopy> = Vec::new();
        for op in sorted {
            // Coalesce with the previous batch when the word runs match
            // and both lanes advance by exactly one node.
            if let Some(last) = copies.last_mut() {
                if last.src == op.src
                    && last.dst == op.dst
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
                src: op.src,
                dst: op.dst,
                len: op.len,
            });
        }
        LaneExchangeProgram {
            copies,
            fills: program
                .fills
                .iter()
                .map(|&(node, word, len)| (node.0, word, len))
                .collect(),
            fill: program.fill,
            cycles: program.cycles,
            edge_words: program.edge_words,
        }
    }

    /// This program with the lane words of two equal-length buffers,
    /// starting at words `a` and `b`, exchanged: exactly what
    /// [`Self::new`] returns for the program generated at the other
    /// buffer's base (every run lies inside one buffer, and a constant
    /// shift keeps the copy order and coalescing).
    ///
    /// # Panics
    ///
    /// Panics if a run straddles a swapped buffer's edge.
    pub fn with_buffers_swapped(&self, a: usize, b: usize, len: usize) -> Self {
        let swap = |word: usize, run: usize| {
            let inside = |base: usize| (base..base + len).contains(&word);
            let end_inside = |base: usize| (base..base + len).contains(&(word + run.max(1) - 1));
            assert!(
                inside(a) == end_inside(a) && inside(b) == end_inside(b),
                "an exchange run straddles a swapped buffer"
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

    /// The communication cycles one run charges (the generated program's).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total words one run copies between lane columns, summed over the
    /// whole machine — identical to the generated program's
    /// [`ExchangeProgram::words_moved`].
    pub fn words_moved(&self) -> usize {
        self.copies.iter().map(|c| c.count * c.len).sum()
    }

    /// Number of batched span copies one run issues (each moving
    /// `count × len` words); always at most the generated program's
    /// copy count, and strictly fewer whenever coalescing found a run of
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
    /// mirror must have been shaped for the same machine and lane layout
    /// the program was generated against.
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
        m.mem(node)[h.layout().addr(r, c)]
    }

    /// Runs the exchange of `h` the way a plan does: the program built
    /// once for its placement, then run.
    fn exchange(m: &mut Machine, h: &HaloBuffer, boundary: Boundary, need_corners: bool) {
        let program = ExchangeProgram::new(
            &h.placement(),
            m.grid(),
            m.config(),
            boundary,
            0.0,
            need_corners,
        );
        program.run(m);
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
        exchange(&mut m, &h, Boundary::Circular, true);
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
        exchange(&mut m, &h, Boundary::Circular, false);
        let n00 = m.grid().id(0, 0);
        // Edges arrive…
        assert_eq!(read(&m, &h, n00, -1, 0), 30.0);
        // …but the corner stays at its initial zero.
        assert_eq!(read(&m, &h, n00, -1, -1), 0.0);
    }

    #[test]
    fn zero_fill_clears_global_edges_only() {
        let (mut m, _, h) = setup(1);
        exchange(&mut m, &h, Boundary::ZeroFill, true);
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
        exchange(&mut m, &h, Boundary::Circular, true);
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

    /// The lane exchange of a buffer placed at lane word 0 leaves the
    /// mirror holding exactly what the node exchange leaves in the halo
    /// buffer, with the same cycle charge and word count, in fewer
    /// (coalesced) copies.
    #[test]
    fn lane_exchange_matches_node_exchange() {
        for (boundary, corners) in [
            (Boundary::Circular, true),
            (Boundary::Circular, false),
            (Boundary::ZeroFill, true),
            (Boundary::ZeroFill, false),
        ] {
            let (mut m, _, h) = setup(1);
            let at = Padded::new(0, (2, 2), 1).unwrap();
            let len = at.words();
            // The mirror starts from the node buffer's words.
            let mut mirror = LaneMirror::new();
            mirror.ensure(len, m.node_count());
            let whole = RectCopy {
                node0: h.field().base(),
                node_stride: len,
                lane0: 0,
                lane_stride: len,
                rows: 1,
                cols: len,
            };
            mirror.gather(&m.exec_parts().1, &whole);
            let generate = |at: &Padded| {
                ExchangeProgram::new(at, m.grid(), m.config(), boundary, 0.5, corners)
            };
            let program = generate(&h.placement());
            let lane = LaneExchangeProgram::new(&generate(&at));
            assert_eq!(lane.words_moved(), program.words_moved());
            assert_eq!(lane.cycles(), program.cycles());
            // Coalescing must have batched adjacent-node copies: the edge
            // steps walk whole board rows/columns, so strictly fewer
            // spans than copies.
            assert!(
                lane.span_count() < program.copies.len(),
                "no spans coalesced: {} spans from {} copies",
                lane.span_count(),
                program.copies.len()
            );
            let node_cycles = program.run(&mut m);
            assert_eq!(lane.run(&mut mirror), node_cycles);
            for node in m.grid().iter() {
                let lanes: Vec<f32> = (0..len).map(|w| mirror.word(w)[node.0]).collect();
                assert_eq!(
                    &m.mem(node)[h.field().range()],
                    &lanes[..],
                    "halo of {node} diverged ({boundary:?}, corners={corners})"
                );
            }
        }
    }

    /// Swapping two equal-length buffers' lane words in a lane exchange
    /// gives exactly the exchange generated at the other buffer's base.
    #[test]
    fn swapped_exchange_matches_generation_at_the_other_base() {
        let m = Machine::new(MachineConfig::tiny_4()).unwrap();
        for (boundary, corners) in [(Boundary::Circular, true), (Boundary::ZeroFill, false)] {
            let a = Padded::new(0, (2, 2), 2).unwrap();
            let len = a.words();
            let b = Padded::new(len, (2, 2), 2).unwrap();
            let lane = |at: &Padded| {
                LaneExchangeProgram::new(&ExchangeProgram::new(
                    at,
                    m.grid(),
                    m.config(),
                    boundary,
                    0.5,
                    corners,
                ))
            };
            let (direct, swapped) = (lane(&a), lane(&b));
            assert_ne!(direct, swapped);
            assert_eq!(direct.with_buffers_swapped(0, len, len), swapped);
            assert_eq!(swapped.with_buffers_swapped(len, 0, len), direct);
        }
    }

    #[test]
    fn fill_program_writes_exactly_the_beyond_edge_frame() {
        // Poison a lane buffer, run its fill program, and check that
        // beyond-global-edge positions (and only those) were
        // overwritten — on nodes at every board position. Circular
        // boundaries have nothing to restore.
        let m = Machine::new(MachineConfig::tiny_4()).unwrap();
        let grid = m.grid();
        let at = Padded::new(0, (2, 2), 1).unwrap();
        for (boundary, fill) in [(Boundary::ZeroFill, 7.5), (Boundary::Circular, -9.0)] {
            let mut mirror = LaneMirror::new();
            mirror.ensure(at.words(), m.node_count());
            for w in 0..at.words() {
                mirror.word_mut(w).fill(-9.0);
            }
            LaneFillProgram::boundary(&at, grid, boundary, 7.5).run(&mut mirror);
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
                            mirror.word(at.layout().addr(r, c))[node.0],
                            want,
                            "{boundary:?}: node {node} logical ({r}, {c})"
                        );
                    }
                }
            }
        }
    }
}
