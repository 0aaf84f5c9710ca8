//! Offline profiling (paper §5.1, §4.5).
//!
//! "We employ an offline profiling step to determine the performance of a
//! system's CPU and GPU with respect to JPEG decoding. ... This profiling
//! is required only once for a given CPU-GPU combination."
//!
//! * [`wg`] — work-group size sweep ("OpenCL work-group sizes are
//!   alternated from 4 MCUs to 32 MCUs", §5.1),
//! * [`chunk`] — pipeline chunk-height tuning ("Chunk sizes are varied from
//!   the full height down to an eight pixel stripe ... The final partition
//!   size is chosen as the largest size on the best list", §4.5),
//! * [`trainer`] — runs the instrumented decoder over a training corpus and
//!   fits the four closed forms with AIC-selected polynomial degrees,
//! * [`host`] — the same pass in wall-clock time on the machine that runs
//!   the code, for the CPU-only modes `Mode::Auto` picks among there.

pub mod chunk;
pub mod host;
pub mod trainer;
pub mod wg;

pub use chunk::tune_chunk_rows;
pub use host::train_host;
pub use trainer::{train, TrainOptions};
pub use wg::tune_wg_blocks;
