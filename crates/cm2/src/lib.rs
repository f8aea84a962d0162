//! Cycle-level simulator of the Connection Machine CM-2 node array.
//!
//! The PLDI 1991 convolution-compiler paper targets a real CM-2: 65,536
//! bit-serial processors grouped into 2,048 *nodes*, each node pairing two
//! processor chips with a Weitek WTL3164 floating-point unit and a memory
//! interface chip, all driven by a central microcode sequencer at 7 MHz.
//! This crate models that machine at the level the compiler cares about:
//!
//! * the **instruction format** ([`isa`]) — static/dynamic instruction
//!   parts, the chained multiply-add discipline, and the compiled
//!   [`isa::Kernel`] that fills the sequencer's scratch data memory;
//! * the **FPU pipeline** ([`exec`]) — multiply at cycle *k*, add at
//!   *k+2*, writeback at *k+4*, one multiplier operand streamed from
//!   memory, load latency through the interface chip, and the penalty for
//!   reversing the memory-pipe direction;
//! * the **node grid** ([`grid`]) and the four-neighbor simultaneous
//!   exchange primitive with its cost model ([`news`]);
//! * **timing** ([`timing`]) — useful-flop accounting and the SIMD
//!   extrapolation rule the paper uses to project 16-node measurements to
//!   the full machine.
//!
//! The simulator is *functional as well as timed*: kernels execute against
//! real per-node memory and produce real `f32` results, so the compiler's
//! register choreography is validated bit-for-bit, not just costed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod exec;
pub mod grid;
pub mod isa;
pub mod kernels;
pub mod lane;
pub mod machine;
pub mod memory;
pub mod news;
pub mod sequencer;
pub mod timing;

pub use config::MachineConfig;
pub use exec::{
    ExecEngine, ExecMode, FieldLayout, HazardError, ResolvedOp, ResolvedPart, ResolvedStrip,
    StripContext, StripRun,
};
pub use grid::{Direction, NodeGrid, NodeId};
pub use isa::{DynamicPart, Kernel, MacAcc, MemRef, Reg, StaticPart};
pub use kernels::{LaneBuffer, RowCoeff, RowProgram, RowRun, RowStep, RowTerm};
pub use lane::LaneMirror;
pub use machine::Machine;
pub use memory::{Field, FieldAllocator, OutOfMemory};
pub use news::{
    corner_exchange_cycles, exchange_cycles, news_exchange_cycles, old_exchange_cycles,
    ExchangePrimitive, ExchangeShape,
};
pub use sequencer::{ScratchMemory, ScratchOverflow, DEFAULT_SCRATCH_ENTRIES};
pub use timing::{CycleBreakdown, Measurement};
