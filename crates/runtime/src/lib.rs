//! Run-time library for the Connection Machine Convolution Compiler.
//!
//! The paper splits the system four ways; this crate is the run-time
//! library's share: "allocating temporary memory space, performing
//! interprocessor communication, and providing the outer levels of
//! iteration" (§5). It owns:
//!
//! * [`mod@array`] — distributed arrays divided into node subgrids
//!   (Figure 1);
//! * [`halo`] — temporary-storage allocation and the three-step halo
//!   exchange (four neighbors simultaneously, corners when needed);
//! * [`strips`] — strip mining with widest-first shaving and half-strip
//!   splitting;
//! * [`mod@convolve`] — the stencil-call entry point tying compiler output to
//!   the simulated machine, returning the paper's accounting
//!   (useful flops, cycles by phase);
//! * [`plan`] — the compile → bind → plan → execute pipeline:
//!   [`plan::ExecutionPlan`] captures every per-call decision (halo
//!   buffers, exchange programs, constant pages, the strip-mine schedule
//!   and the row program) once, so iterative applications replay only
//!   data movement and arithmetic;
//! * [`mod@reference`] — a host-side golden model with Fortran
//!   `CSHIFT`/`EOSHIFT` semantics, matched bit for bit by compiled
//!   execution.
//!
//! # Examples
//!
//! ```
//! use cmcc_cm2::{Machine, MachineConfig};
//! use cmcc_core::Compiler;
//! use cmcc_runtime::{convolve, CmArray, ExecOptions};
//!
//! let mut machine = Machine::new(MachineConfig::tiny_4())?;
//! let compiled = Compiler::new(machine.config().clone())
//!     .compile_assignment("R = 0.5 * CSHIFT(X, 1, -1) + 0.5 * CSHIFT(X, 1, +1)")?;
//! let x = CmArray::new(&mut machine, 8, 8)?;
//! let r = CmArray::new(&mut machine, 8, 8)?;
//! x.fill_with(&mut machine, |row, _| row as f32);
//! let measurement = convolve(&mut machine, &compiled, &r, &x, &[], &ExecOptions::default())?;
//! // Interior rows average their neighbors.
//! assert_eq!(r.get(&machine, 3, 0), 3.0);
//! assert!(measurement.mflops(machine.config()) > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod array;
pub mod convolve;
pub mod error;
pub mod halo;
pub mod plan;
pub mod reference;
pub mod strips;
pub mod volume;

pub use array::CmArray;
pub use cmcc_cm2::exec::ExecEngine;
pub use convolve::{convolve, convolve_multi, ExecOptions};
pub use error::RuntimeError;
pub use halo::{ExchangeProgram, HaloBuffer};
pub use plan::{CompiledPlan, ExecutionPlan, LeaseRange, PlanInstance, StencilBinding};
pub use reference::{reference_convolve, reference_convolve_multi, CoeffValue};
pub use strips::{full_strip, halfstrips, plan_strips, HalfStrip, Strip};
pub use volume::{convolve_volume, CmVolume};
