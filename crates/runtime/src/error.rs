//! Run-time library errors.

use cmcc_cm2::exec::HazardError;
use cmcc_cm2::memory::OutOfMemory;
use std::error::Error;
use std::fmt;

/// Anything the run-time library can refuse or fail at.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The global array shape does not divide evenly over the node grid.
    IndivisibleShape {
        /// Requested global rows.
        rows: usize,
        /// Requested global columns.
        cols: usize,
        /// Node grid rows.
        grid_rows: usize,
        /// Node grid columns.
        grid_cols: usize,
    },
    /// Arrays passed to one stencil call have different shapes.
    ShapeMismatch {
        /// Description of the offending argument.
        what: String,
    },
    /// The subgrid is smaller than the halo the stencil needs, so a
    /// single exchange with the four neighbors cannot provide all the
    /// border data.
    SubgridTooSmall {
        /// Halo padding required.
        pad: usize,
        /// Subgrid rows.
        sub_rows: usize,
        /// Subgrid columns.
        sub_cols: usize,
    },
    /// The caller supplied the wrong number of coefficient arrays.
    WrongCoeffCount {
        /// Arrays expected (named coefficients in the statement).
        expected: usize,
        /// Arrays supplied.
        got: usize,
    },
    /// The caller supplied the wrong number of source arrays for a
    /// (possibly multi-source) stencil.
    WrongSourceCount {
        /// Sources the statement shifts.
        expected: usize,
        /// Sources supplied.
        got: usize,
    },
    /// A temporally tiled plan cannot fuse this binding: its `k` steps
    /// per execute would not equal `k` separate executes (the result
    /// aliases a named coefficient, which each separate step would
    /// overwrite), or its fused schedule does not map onto the lane
    /// mirror.
    Unfusable {
        /// Why the binding cannot fuse.
        reason: &'static str,
    },
    /// Node memory exhausted.
    OutOfMemory(OutOfMemory),
    /// The compiled kernel tripped the simulator's pipeline hazard
    /// detector — a compiler bug surfaced at run time.
    Hazard(HazardError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::IndivisibleShape {
                rows,
                cols,
                grid_rows,
                grid_cols,
            } => write!(
                f,
                "array shape {rows}x{cols} does not divide over the {grid_rows}x{grid_cols} node grid"
            ),
            RuntimeError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            RuntimeError::SubgridTooSmall {
                pad,
                sub_rows,
                sub_cols,
            } => write!(
                f,
                "subgrid {sub_rows}x{sub_cols} is smaller than the {pad}-deep halo the stencil needs"
            ),
            RuntimeError::WrongCoeffCount { expected, got } => write!(
                f,
                "stencil call expected {expected} coefficient arrays, got {got}"
            ),
            RuntimeError::WrongSourceCount { expected, got } => write!(
                f,
                "stencil call expected {expected} source arrays, got {got}"
            ),
            RuntimeError::Unfusable { reason } => {
                write!(f, "temporal plan cannot fuse this binding: {reason}")
            }
            RuntimeError::OutOfMemory(e) => e.fmt(f),
            RuntimeError::Hazard(e) => e.fmt(f),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::OutOfMemory(e) => Some(e),
            RuntimeError::Hazard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OutOfMemory> for RuntimeError {
    fn from(e: OutOfMemory) -> Self {
        RuntimeError::OutOfMemory(e)
    }
}

impl From<HazardError> for RuntimeError {
    fn from(e: HazardError) -> Self {
        RuntimeError::Hazard(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = RuntimeError::IndivisibleShape {
            rows: 5,
            cols: 4,
            grid_rows: 2,
            grid_cols: 2,
        };
        assert!(e.to_string().contains("5x4"));
        let e = RuntimeError::SubgridTooSmall {
            pad: 3,
            sub_rows: 2,
            sub_cols: 8,
        };
        assert!(e.to_string().contains("halo"));
        let e = RuntimeError::WrongCoeffCount {
            expected: 5,
            got: 4,
        };
        assert!(e.to_string().contains("5"));
    }

    #[test]
    fn conversions_carry_sources() {
        let oom = OutOfMemory {
            requested: 10,
            available: 5,
        };
        let e = RuntimeError::from(oom);
        assert!(std::error::Error::source(&e).is_some());
    }
}
