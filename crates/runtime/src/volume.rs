//! Three-dimensional arrays and the outer plane loop.
//!
//! The paper's run-time library "provides the outer loop structure for
//! strip-mining and for handling multidimensional arrays" (§1): the
//! compiled kernels are two-dimensional, and higher-rank arrays are
//! processed plane by plane. A [`CmVolume`] is a stack of distributed
//! planes; [`convolve_volume`] runs a compiled kernel over every plane.
//!
//! Third-dimension stencil terms compose with the multi-source extension:
//! a 3-D stencil like the 7-point Laplacian is written as a fused 2-D
//! multi-source statement over the planes above and below
//! (`R = CD*CSHIFT(PDOWN,1,0) + … + CU*CSHIFT(PUP,1,0)`), and
//! `plane_offsets` binds kernel source *s* to the plane `p + offsets[s]`.
//! The depth boundary follows the stencil's own discipline: circular for
//! `CSHIFT` statements, zero planes for `EOSHIFT`.

use crate::array::CmArray;
use crate::convolve::ExecOptions;
use crate::error::RuntimeError;
use crate::plan::{ExecutionPlan, StencilBinding};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::timing::Measurement;
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::stencil::Boundary;

/// A distributed 3-D `f32` array: `depth` planes of `rows × cols`, each
/// plane divided over the node grid like a [`CmArray`].
#[derive(Debug, Clone)]
pub struct CmVolume {
    planes: Vec<CmArray>,
    rows: usize,
    cols: usize,
}

impl CmVolume {
    /// Allocates a `depth × rows × cols` volume.
    ///
    /// # Errors
    ///
    /// As [`CmArray::new`], per plane.
    pub fn new(
        machine: &mut Machine,
        depth: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Self, RuntimeError> {
        assert!(depth > 0, "a volume needs at least one plane");
        let planes = (0..depth)
            .map(|_| CmArray::new(machine, rows, cols))
            .collect::<Result<_, _>>()?;
        Ok(CmVolume { planes, rows, cols })
    }

    /// Number of planes.
    pub fn depth(&self) -> usize {
        self.planes.len()
    }

    /// Rows per plane.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per plane.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One plane.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn plane(&self, p: usize) -> &CmArray {
        &self.planes[p]
    }

    /// Fills element `(p, r, c)` with `f(p, r, c)`.
    pub fn fill_with(&self, machine: &mut Machine, f: impl Fn(usize, usize, usize) -> f32) {
        for (p, plane) in self.planes.iter().enumerate() {
            plane.fill_with(machine, |r, c| f(p, r, c));
        }
    }

    /// Gathers the volume into a host buffer, plane-major.
    pub fn gather(&self, machine: &Machine) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.depth() * self.rows * self.cols);
        for plane in &self.planes {
            out.extend(plane.gather(machine));
        }
        out
    }

    /// Whether `other` has the same shape.
    pub fn same_shape(&self, other: &CmVolume) -> bool {
        self.depth() == other.depth() && self.rows == other.rows && self.cols == other.cols
    }
}

/// Applies a compiled (possibly multi-source) 2-D kernel across every
/// plane of a volume: kernel source `s` reads the plane at
/// `p + plane_offsets[s]`. Pass `&[0]` for an ordinary single-source
/// stencil applied plane by plane.
///
/// The depth boundary follows the stencil's boundary discipline:
/// `CSHIFT` statements wrap circularly in depth, `EOSHIFT` statements
/// read zero planes beyond the ends.
///
/// Returns the summed measurement over all planes.
///
/// # Errors
///
/// [`RuntimeError::WrongSourceCount`] if `plane_offsets` does not match
/// the kernel's source count; otherwise as [`crate::convolve_multi`], per plane.
pub fn convolve_volume(
    machine: &mut Machine,
    compiled: &CompiledStencil,
    result: &CmVolume,
    source: &CmVolume,
    plane_offsets: &[i32],
    coeffs: &[&CmVolume],
    opts: &ExecOptions,
) -> Result<Measurement, RuntimeError> {
    let expected = compiled.stencil().source_count().max(1);
    if plane_offsets.len() != expected {
        return Err(RuntimeError::WrongSourceCount {
            expected,
            got: plane_offsets.len(),
        });
    }
    if !result.same_shape(source) {
        return Err(RuntimeError::ShapeMismatch {
            what: "result and source volumes differ in shape".to_owned(),
        });
    }
    for c in coeffs {
        if !c.same_shape(source) {
            return Err(RuntimeError::ShapeMismatch {
                what: "coefficient volume differs in shape".to_owned(),
            });
        }
    }

    let depth = source.depth() as i64;
    // A shared zero plane backs out-of-range depth reads under EOSHIFT
    // semantics: a temporary of this call, allocated only when some
    // plane needs it.
    let needs_zero = compiled.stencil().boundary() == Boundary::ZeroFill
        && plane_offsets.iter().any(|&o| o != 0);
    let mark = machine.alloc_mark();
    let outcome = (|| {
        let zero_plane = if needs_zero {
            let plane = CmArray::new(machine, source.rows(), source.cols())?;
            if compiled.stencil().fill() != 0.0 {
                plane.fill(machine, compiled.stencil().fill());
            }
            Some(plane)
        } else {
            None
        };
        // Kernel source `s` of output plane `p` reads plane
        // `p + plane_offsets[s]`.
        let sources = |p: i64| -> Vec<&CmArray> {
            plane_offsets
                .iter()
                .map(|&off| {
                    let q = p + i64::from(off);
                    match compiled.stencil().boundary() {
                        Boundary::Circular => source.plane(q.rem_euclid(depth) as usize),
                        Boundary::ZeroFill => {
                            if (0..depth).contains(&q) {
                                source.plane(q as usize)
                            } else {
                                zero_plane.as_ref().expect("zero plane allocated")
                            }
                        }
                    }
                })
                .collect()
        };
        let coeff_planes =
            |p: i64| -> Vec<&CmArray> { coeffs.iter().map(|c| c.plane(p as usize)).collect() };
        // One plan serves the whole volume: every plane has the same
        // shape, so plane `p` is a rebind — a pure address shift — rather
        // than a fresh round of allocation and schedule building.
        let binding =
            StencilBinding::new(compiled, result.plane(0), &sources(0), &coeff_planes(0))?;
        let mut plan = ExecutionPlan::build(machine, &binding, opts)?;
        let mut sweep = || -> Result<Measurement, RuntimeError> {
            let mut total = plan.execute(machine)?;
            for p in 1..depth {
                plan.rebind(result.plane(p as usize), &sources(p), &coeff_planes(p))?;
                total = total.combine(&plan.execute(machine)?);
            }
            Ok(total)
        };
        let swept = sweep();
        plan.release(machine);
        swept
    })();
    machine.release_to(mark);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_convolve_multi, CoeffValue};
    use cmcc_cm2::config::MachineConfig;
    use cmcc_core::compiler::Compiler;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    /// The 7-point 3-D Laplacian-style stencil as a fused multi-source
    /// statement: PD = plane below, P = this plane, PU = plane above.
    const SEVEN_POINT_3D: &str = "R = 0.1 * CSHIFT(PD, 1, 0) \
                                    + 0.15 * CSHIFT(P, 1, -1) \
                                    + 0.15 * CSHIFT(P, 2, -1) \
                                    + 0.2 * P \
                                    + 0.15 * CSHIFT(P, 2, +1) \
                                    + 0.15 * CSHIFT(P, 1, +1) \
                                    + 0.1 * CSHIFT(PU, 1, 0)";

    #[test]
    fn seven_point_3d_matches_per_plane_reference() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment_extended(SEVEN_POINT_3D)
            .unwrap();
        assert_eq!(compiled.spec().sources, vec!["PD", "P", "PU"]);

        let (depth, rows, cols) = (5usize, 8usize, 8usize);
        let x = CmVolume::new(&mut m, depth, rows, cols).unwrap();
        let r = CmVolume::new(&mut m, depth, rows, cols).unwrap();
        x.fill_with(&mut m, |p, i, j| {
            ((p * 19 + i * 7 + j * 3) % 23) as f32 * 0.4 - 4.0
        });

        convolve_volume(
            &mut m,
            &compiled,
            &r,
            &x,
            &[-1, 0, 1],
            &[],
            &ExecOptions::default(),
        )
        .unwrap();

        // Host reference: per output plane, evaluate the fused 2-D
        // stencil against the wrapped neighbor planes.
        let host_planes: Vec<Vec<f32>> = (0..depth).map(|p| x.plane(p).gather(&m)).collect();
        let values: Vec<CoeffValue<'_>> = compiled
            .spec()
            .coeffs
            .iter()
            .map(|c| match c {
                cmcc_core::recognize::CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
                cmcc_core::recognize::CoeffSpec::Named(_) => unreachable!("all literal"),
            })
            .collect();
        for p in 0..depth {
            let below = &host_planes[(p + depth - 1) % depth];
            let here = &host_planes[p];
            let above = &host_planes[(p + 1) % depth];
            let want = reference_convolve_multi(
                compiled.stencil(),
                rows,
                cols,
                &[below, here, above],
                &values,
            );
            let got = r.plane(p).gather(&m);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "plane {p}");
            }
        }
    }

    #[test]
    fn zero_fill_depth_boundary() {
        let mut m = machine();
        // Pure depth shift: R(p) = X(p+1), zero beyond the last plane.
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment_extended("R = 1.0 * EOSHIFT(PU, 1, 0)")
            .unwrap();
        let (depth, rows, cols) = (3usize, 4usize, 4usize);
        let x = CmVolume::new(&mut m, depth, rows, cols).unwrap();
        let r = CmVolume::new(&mut m, depth, rows, cols).unwrap();
        x.fill_with(&mut m, |p, _, _| (p + 1) as f32);

        convolve_volume(
            &mut m,
            &compiled,
            &r,
            &x,
            &[1],
            &[],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.plane(0).get(&m, 0, 0), 2.0);
        assert_eq!(r.plane(1).get(&m, 2, 2), 3.0);
        assert_eq!(r.plane(2).get(&m, 1, 3), 0.0, "beyond the last plane");
    }

    #[test]
    fn plane_by_plane_single_source() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = 0.5 * CSHIFT(X, 2, 1) + 0.5 * X")
            .unwrap();
        let (depth, rows, cols) = (2usize, 4usize, 4usize);
        let x = CmVolume::new(&mut m, depth, rows, cols).unwrap();
        let r = CmVolume::new(&mut m, depth, rows, cols).unwrap();
        x.fill_with(&mut m, |p, _, c| (p * 10 + c) as f32);
        let meas = convolve_volume(
            &mut m,
            &compiled,
            &r,
            &x,
            &[0],
            &[],
            &ExecOptions::default(),
        )
        .unwrap();
        // Each plane averaged with its east neighbor (circular).
        assert_eq!(r.plane(0).get(&m, 0, 0), 0.5);
        assert_eq!(r.plane(1).get(&m, 0, 3), 0.5 * 13.0 + 0.5 * 10.0);
        // Measurement sums over planes.
        assert_eq!(
            meas.useful_flops,
            2 * (rows * cols) as u64 * compiled.stencil().useful_flops_per_point()
        );
    }

    #[test]
    fn wrong_offset_count_rejected() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = 1.0 * X")
            .unwrap();
        let x = CmVolume::new(&mut m, 2, 4, 4).unwrap();
        let r = CmVolume::new(&mut m, 2, 4, 4).unwrap();
        let err = convolve_volume(
            &mut m,
            &compiled,
            &r,
            &x,
            &[0, 1],
            &[],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::WrongSourceCount { .. }));
    }

    #[test]
    fn temporaries_are_released_across_planes() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment_extended("R = 1.0 * EOSHIFT(PU, 1, 0)")
            .unwrap();
        let x = CmVolume::new(&mut m, 3, 4, 4).unwrap();
        let r = CmVolume::new(&mut m, 3, 4, 4).unwrap();
        let before = m.alloc_mark();
        convolve_volume(
            &mut m,
            &compiled,
            &r,
            &x,
            &[1],
            &[],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(m.alloc_mark(), before);
    }
}
