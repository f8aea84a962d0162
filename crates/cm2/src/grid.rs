//! The two-dimensional node grid and its hypercube embedding.
//!
//! The CM-2's 2,048 floating-point nodes form an 11-dimensional boolean
//! hypercube (paper §3). Grid communication embeds a 2-D torus in that
//! hypercube with a Gray code along each axis so that grid neighbors are
//! hypercube neighbors ("This grid is embedded within the hypercube
//! topology in such a way that grid neighbors are hypercube neighbors,
//! thereby making effective use of the network", §4.1).

use std::fmt;

/// One of the four grid directions (the CM NEWS directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward smaller row indices.
    North,
    /// Toward larger row indices.
    South,
    /// Toward larger column indices.
    East,
    /// Toward smaller column indices.
    West,
}

impl Direction {
    /// All four directions, in NEWS order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::West,
        Direction::South,
    ];

    /// The opposite direction.
    pub fn opposite(&self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// `(drow, dcol)` unit step of this direction.
    pub fn step(&self) -> (i64, i64) {
        match self {
            Direction::North => (-1, 0),
            Direction::South => (1, 0),
            Direction::East => (0, 1),
            Direction::West => (0, -1),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Direction::North => "north",
            Direction::South => "south",
            Direction::East => "east",
            Direction::West => "west",
        };
        f.write_str(name)
    }
}

/// A node's identity within the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A 2-D torus of nodes.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::grid::{Direction, NodeGrid};
///
/// let grid = NodeGrid::new(4, 4);
/// let id = grid.id(0, 0);
/// // The torus wraps: north of row 0 is row 3.
/// assert_eq!(grid.coords(grid.neighbor(id, Direction::North)), (3, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeGrid {
    rows: usize,
    cols: usize,
}

impl NodeGrid {
    /// Creates a grid of `rows × cols` nodes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "node grid dimensions must be nonzero");
        NodeGrid { rows, cols }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total nodes.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the grid has no nodes (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node at grid position `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn id(&self, row: usize, col: usize) -> NodeId {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) outside {self:?}"
        );
        NodeId(row * self.cols + col)
    }

    /// The grid position of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn coords(&self, id: NodeId) -> (usize, usize) {
        assert!(id.0 < self.len(), "{id} outside {self:?}");
        (id.0 / self.cols, id.0 % self.cols)
    }

    /// The torus neighbor of `id` in `dir`.
    pub fn neighbor(&self, id: NodeId, dir: Direction) -> NodeId {
        let (r, c) = self.coords(id);
        let (dr, dc) = dir.step();
        let nr = (r as i64 + dr).rem_euclid(self.rows as i64) as usize;
        let nc = (c as i64 + dc).rem_euclid(self.cols as i64) as usize;
        self.id(nr, nc)
    }

    /// The diagonal torus neighbor of `id` (one step in each of two
    /// directions), used by the corner-exchange step of the halo protocol.
    pub fn diagonal_neighbor(
        &self,
        id: NodeId,
        vertical: Direction,
        horizontal: Direction,
    ) -> NodeId {
        self.neighbor(self.neighbor(id, vertical), horizontal)
    }

    /// Iterates over all node ids in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// The hypercube address of a node under the Gray-code embedding.
    ///
    /// Each grid axis is Gray-coded independently and the two codes are
    /// concatenated; when both dimensions are powers of two, grid
    /// neighbors then differ in exactly one address bit (except across the
    /// torus wrap, where the reflected Gray code still guarantees a
    /// single-bit difference).
    pub fn hypercube_address(&self, id: NodeId) -> u32 {
        let (r, c) = self.coords(id);
        let col_bits = bits_for(self.cols);
        (gray(r as u32) << col_bits) | gray(c as u32)
    }
}

fn bits_for(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

fn gray(x: u32) -> u32 {
    x ^ (x >> 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_and_id_round_trip() {
        let g = NodeGrid::new(4, 8);
        for id in g.iter() {
            let (r, c) = g.coords(id);
            assert_eq!(g.id(r, c), id);
        }
    }

    #[test]
    fn torus_wraps_in_all_directions() {
        let g = NodeGrid::new(3, 5);
        let corner = g.id(0, 0);
        assert_eq!(g.coords(g.neighbor(corner, Direction::North)), (2, 0));
        assert_eq!(g.coords(g.neighbor(corner, Direction::West)), (0, 4));
        assert_eq!(g.coords(g.neighbor(corner, Direction::South)), (1, 0));
        assert_eq!(g.coords(g.neighbor(corner, Direction::East)), (0, 1));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let g = NodeGrid::new(4, 4);
        for id in g.iter() {
            for dir in Direction::ALL {
                let n = g.neighbor(id, dir);
                assert_eq!(g.neighbor(n, dir.opposite()), id);
            }
        }
    }

    #[test]
    fn diagonal_neighbor_composes_steps() {
        let g = NodeGrid::new(4, 4);
        let id = g.id(1, 1);
        let d = g.diagonal_neighbor(id, Direction::North, Direction::East);
        assert_eq!(g.coords(d), (0, 2));
    }

    #[test]
    fn gray_embedding_makes_grid_neighbors_hypercube_neighbors() {
        // Power-of-two grid: every grid edge is a hypercube edge.
        let g = NodeGrid::new(4, 8);
        for id in g.iter() {
            for dir in Direction::ALL {
                let n = g.neighbor(id, dir);
                let diff = g.hypercube_address(id) ^ g.hypercube_address(n);
                assert_eq!(
                    diff.count_ones(),
                    1,
                    "{:?} -> {dir}: addresses {:#b} vs {:#b}",
                    g.coords(id),
                    g.hypercube_address(id),
                    g.hypercube_address(n)
                );
            }
        }
    }

    #[test]
    fn full_machine_grid_uses_eleven_address_bits() {
        let g = NodeGrid::new(64, 32);
        let max = g.iter().map(|id| g.hypercube_address(id)).max().unwrap();
        assert!(max < (1 << 11), "address {max:#b} exceeds 11-cube");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_position_panics() {
        let g = NodeGrid::new(2, 2);
        let _ = g.id(2, 0);
    }
}
