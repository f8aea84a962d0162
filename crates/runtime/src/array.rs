//! Distributed arrays: global 2-D arrays divided into per-node subgrids.
//!
//! "All the arrays involved in the stencil computation — source, result,
//! and coefficient — are of the same size and shape. They are expected to
//! be divided up among the nodes in the same manner. The nodes themselves
//! are arranged in a two-dimensional grid; each node contains a
//! two-dimensional subgrid of each array" (§5, Figure 1). A 256×256 array
//! on a 4×4 node grid gives every node a 64×64 subgrid.

use crate::error::RuntimeError;
use cmcc_cm2::exec::FieldLayout;
use cmcc_cm2::grid::NodeId;
use cmcc_cm2::machine::Machine;
use cmcc_cm2::memory::Field;

/// A global 2-D `f32` array distributed across the machine's node grid in
/// Figure 1 style: node `(R, C)` holds the block of rows
/// `R·sub_rows .. (R+1)·sub_rows` and columns `C·sub_cols .. (C+1)·sub_cols`.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::{Machine, MachineConfig};
/// use cmcc_runtime::array::CmArray;
///
/// let mut machine = Machine::new(MachineConfig::tiny_4())?;
/// let a = CmArray::new(&mut machine, 8, 8)?;
/// a.fill_with(&mut machine, |r, c| (r * 8 + c) as f32);
/// assert_eq!(a.get(&machine, 3, 5), 29.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CmArray {
    field: Field,
    rows: usize,
    cols: usize,
    sub_rows: usize,
    sub_cols: usize,
}

impl CmArray {
    /// Allocates a `rows × cols` array across `machine`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::IndivisibleShape`] when the global shape
    /// does not divide evenly over the node grid, or
    /// [`RuntimeError::OutOfMemory`] when node memory is exhausted.
    pub fn new(machine: &mut Machine, rows: usize, cols: usize) -> Result<Self, RuntimeError> {
        let grid = machine.grid();
        if rows == 0
            || cols == 0
            || !rows.is_multiple_of(grid.rows())
            || !cols.is_multiple_of(grid.cols())
        {
            return Err(RuntimeError::IndivisibleShape {
                rows,
                cols,
                grid_rows: grid.rows(),
                grid_cols: grid.cols(),
            });
        }
        let sub_rows = rows / grid.rows();
        let sub_cols = cols / grid.cols();
        let field = machine.alloc_field(sub_rows * sub_cols)?;
        Ok(CmArray {
            field,
            rows,
            cols,
            sub_rows,
            sub_cols,
        })
    }

    /// Global rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows per node subgrid.
    pub fn sub_rows(&self) -> usize {
        self.sub_rows
    }

    /// Columns per node subgrid.
    pub fn sub_cols(&self) -> usize {
        self.sub_cols
    }

    /// Whether `other` has the same global and subgrid shape.
    pub fn same_shape(&self, other: &CmArray) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    /// The backing field (same address on every node).
    pub fn field(&self) -> Field {
        self.field
    }

    /// Address arithmetic for this array's subgrid on any node.
    pub fn layout(&self) -> FieldLayout {
        FieldLayout {
            base: self.field.base(),
            row_stride: self.sub_cols,
            row_offset: 0,
            col_offset: 0,
        }
    }

    /// The node owning global element `(r, c)` and the element's
    /// subgrid-local coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the array.
    pub fn locate(&self, machine: &Machine, r: usize, c: usize) -> (NodeId, usize, usize) {
        assert!(
            r < self.rows && c < self.cols,
            "({r}, {c}) outside {}x{}",
            self.rows,
            self.cols
        );
        let node = machine.grid().id(r / self.sub_rows, c / self.sub_cols);
        (node, r % self.sub_rows, c % self.sub_cols)
    }

    /// Reads global element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, machine: &Machine, r: usize, c: usize) -> f32 {
        let (node, lr, lc) = self.locate(machine, r, c);
        machine.mem(node)[self.field.addr(lr * self.sub_cols + lc)]
    }

    /// Writes global element `(r, c)`, stamping the array's field as
    /// written (see [`Machine::written_since`]).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&self, machine: &mut Machine, r: usize, c: usize, value: f32) {
        let (node, lr, lc) = self.locate(machine, r, c);
        let addr = self.field.addr(lr * self.sub_cols + lc);
        machine.write_nodes([self.field.range()])[node.0][addr] = value;
    }

    /// Scatters a row-major host buffer into the distributed array,
    /// stamping exactly the array's field as written.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn scatter(&self, machine: &mut Machine, data: &[f32]) {
        assert_eq!(
            data.len(),
            self.rows * self.cols,
            "host buffer length mismatch"
        );
        let grid = machine.grid();
        for (i, mem) in machine
            .write_nodes([self.field.range()])
            .into_iter()
            .enumerate()
        {
            let (gr, gc) = grid.coords(NodeId(i));
            let sub = &mut mem[self.field.range()];
            for lr in 0..self.sub_rows {
                let global_row = gr * self.sub_rows + lr;
                let src = global_row * self.cols + gc * self.sub_cols;
                sub[lr * self.sub_cols..(lr + 1) * self.sub_cols]
                    .copy_from_slice(&data[src..src + self.sub_cols]);
            }
        }
    }

    /// Gathers the distributed array into a row-major host buffer.
    pub fn gather(&self, machine: &Machine) -> Vec<f32> {
        let mut out = vec![0.0; self.rows * self.cols];
        for node in machine.grid().iter() {
            let (gr, gc) = machine.grid().coords(node);
            let sub = &machine.mem(node)[self.field.range()];
            for lr in 0..self.sub_rows {
                let global_row = gr * self.sub_rows + lr;
                let dst = global_row * self.cols + gc * self.sub_cols;
                out[dst..dst + self.sub_cols]
                    .copy_from_slice(&sub[lr * self.sub_cols..(lr + 1) * self.sub_cols]);
            }
        }
        out
    }

    /// Fills every element with `value`, stamping the array's field.
    pub fn fill(&self, machine: &mut Machine, value: f32) {
        for mem in machine.write_nodes([self.field.range()]) {
            mem[self.field.range()].fill(value);
        }
    }

    /// Fills element `(r, c)` with `f(r, c)` (global coordinates).
    pub fn fill_with(&self, machine: &mut Machine, f: impl Fn(usize, usize) -> f32) {
        let data: Vec<f32> = (0..self.rows * self.cols)
            .map(|i| f(i / self.cols, i % self.cols))
            .collect();
        self.scatter(machine, &data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcc_cm2::config::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    #[test]
    fn scatter_gather_round_trips() {
        let mut m = machine();
        let a = CmArray::new(&mut m, 6, 8).unwrap();
        let data: Vec<f32> = (0..48).map(|i| i as f32 * 0.5).collect();
        a.scatter(&mut m, &data);
        assert_eq!(a.gather(&m), data);
    }

    #[test]
    fn figure_1_block_layout() {
        // A 256×256 array on a 4×4 grid: node (3, 2) holds rows 192..256,
        // columns 128..192 — "A(193:256, 129:192)" in Fortran's 1-based
        // notation (Figure 1).
        let mut m = Machine::new(MachineConfig::test_board_16()).unwrap();
        let a = CmArray::new(&mut m, 256, 256).unwrap();
        assert_eq!(a.sub_rows(), 64);
        assert_eq!(a.sub_cols(), 64);
        let (node, lr, lc) = a.locate(&m, 192, 128);
        assert_eq!(node, m.grid().id(3, 2));
        assert_eq!((lr, lc), (0, 0));
    }

    #[test]
    fn get_set_align_with_scatter() {
        let mut m = machine();
        let a = CmArray::new(&mut m, 4, 4).unwrap();
        a.set(&mut m, 3, 1, 7.5);
        let host = a.gather(&m);
        assert_eq!(host[3 * 4 + 1], 7.5);
        assert_eq!(a.get(&m, 3, 1), 7.5);
    }

    #[test]
    fn fill_with_uses_global_coordinates() {
        let mut m = machine();
        let a = CmArray::new(&mut m, 4, 6).unwrap();
        a.fill_with(&mut m, |r, c| (10 * r + c) as f32);
        assert_eq!(a.get(&m, 2, 5), 25.0);
        assert_eq!(a.get(&m, 0, 0), 0.0);
    }

    #[test]
    fn indivisible_shapes_rejected() {
        let mut m = machine();
        assert!(matches!(
            CmArray::new(&mut m, 5, 4),
            Err(RuntimeError::IndivisibleShape { .. })
        ));
        assert!(matches!(
            CmArray::new(&mut m, 4, 7),
            Err(RuntimeError::IndivisibleShape { .. })
        ));
        assert!(CmArray::new(&mut m, 0, 4).is_err());
    }

    #[test]
    fn distinct_arrays_do_not_alias() {
        let mut m = machine();
        let a = CmArray::new(&mut m, 4, 4).unwrap();
        let b = CmArray::new(&mut m, 4, 4).unwrap();
        a.fill(&mut m, 1.0);
        b.fill(&mut m, 2.0);
        assert_eq!(a.get(&m, 0, 0), 1.0);
        assert_eq!(b.get(&m, 0, 0), 2.0);
        assert!(a.same_shape(&b));
    }

    #[test]
    fn layout_matches_get() {
        let mut m = machine();
        let a = CmArray::new(&mut m, 4, 4).unwrap();
        a.set(&mut m, 1, 1, 9.0); // node (0,0) local (1,1)
        let layout = a.layout();
        let node = m.grid().id(0, 0);
        assert_eq!(m.mem(node)[layout.addr(1, 1)], 9.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_get_panics() {
        let mut m = machine();
        let a = CmArray::new(&mut m, 4, 4).unwrap();
        let _ = a.get(&m, 4, 0);
    }
}
