//! The decode modes: the paper's six (§6) — sequential, SIMD, GPU,
//! pipelined GPU, SPS, PPS — plus the restart-aware parallel-entropy mode
//! and the model-driven `Auto` selector.
//!
//! Every concrete mode really decodes the image (the outputs of all seven
//! are byte-identical — enforced by `tests/modes_agree.rs`) and
//! simultaneously builds the virtual-time execution trace from which the
//! paper's figures are regenerated.
//!
//! The entry point is the session API ([`crate::session::Decoder`]), which
//! owns the platform, the trained model and the pooled scratch. (The
//! pre-session free functions — `decode_with_mode` and the
//! `single`/`hetero` wrappers — were removed in PR 4 after one release of
//! deprecation; see docs/API.md for the migration table.)

pub mod auto;
pub(crate) mod cpu;
pub mod entropy_par;
pub(crate) mod hetero;
pub(crate) mod single;

use crate::model::PerformanceModel;
use crate::partition::Partition;
use crate::platform::Platform;
use crate::timeline::{Breakdown, Trace};
use crate::workspace::Workspace;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::types::{RgbImage, YccImage};

/// Decode mode selector: the paper's six decoder versions (§6), the
/// restart-aware parallel-entropy extension, and the model-driven selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Scalar CPU decoding (libjpeg-turbo without SIMD).
    Sequential,
    /// Optimized CPU decoding (libjpeg-turbo's SIMD yardstick).
    Simd,
    /// Whole-image GPU offload after Huffman decoding (Fig. 5a).
    Gpu,
    /// Chunked GPU offload overlapped with Huffman decoding (Fig. 5b).
    PipelinedGpu,
    /// Simple Partitioning Scheme: CPU+GPU split after Huffman (§5.2.1).
    Sps,
    /// Pipelined Partitioning Scheme: split + overlap + re-partitioning
    /// (§5.2.2).
    Pps,
    /// Intra-stream-parallel Huffman decoding on a thread pool, then the
    /// SIMD parallel phase. With restart markers it exploits the
    /// byte-aligned synchronization points DRI inserts; without them it
    /// speculatively decodes evenly spaced chunks, relying on Huffman
    /// self-synchronization (Klein & Wiseman) and a stitch pass that
    /// re-decodes the short unconverged prefix at each boundary, so the
    /// output stays bit-identical to sequential on restart-free streams.
    ParallelEntropy,
    /// Pick among the seven concrete modes per image with the trained §5.1
    /// model (`THuff`, `PCPU`, `PGPU`, `Tdisp`) — the paper's dynamic
    /// partitioning idea promoted to dynamic *mode selection*. The outcome
    /// reports the concrete mode that was chosen.
    Auto,
}

impl Mode {
    /// All concrete modes in presentation order (the paper's six plus
    /// `ParallelEntropy`; `Auto` is a selector, not a decoder).
    pub fn all() -> [Mode; 7] {
        [
            Mode::Sequential,
            Mode::Simd,
            Mode::Gpu,
            Mode::PipelinedGpu,
            Mode::Sps,
            Mode::Pps,
            Mode::ParallelEntropy,
        ]
    }

    /// The paper's original six modes, for experiments that reproduce its
    /// tables verbatim.
    pub fn paper_six() -> [Mode; 6] {
        [
            Mode::Sequential,
            Mode::Simd,
            Mode::Gpu,
            Mode::PipelinedGpu,
            Mode::Sps,
            Mode::Pps,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Sequential => "sequential",
            Mode::Simd => "SIMD",
            Mode::Gpu => "GPU",
            Mode::PipelinedGpu => "pipeline",
            Mode::Sps => "SPS",
            Mode::Pps => "PPS",
            Mode::ParallelEntropy => "par-entropy",
            Mode::Auto => "auto",
        }
    }

    /// True for modes whose whole pipeline runs on the CPU (no simulated
    /// GPU involvement) — the only modes that can produce planar output
    /// without a device round-trip.
    pub fn is_cpu_only(&self) -> bool {
        matches!(self, Mode::Sequential | Mode::Simd | Mode::ParallelEntropy)
    }
}

/// Result of decoding with one mode.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// The decoded image (bit-identical across modes). Empty `data` when
    /// planar output was requested — see [`Self::ycc`].
    pub image: RgbImage,
    /// Planar YCbCr output, populated instead of `image` when
    /// [`crate::session::OutputFormat::PlanarYcc`] was requested.
    pub ycc: Option<YccImage>,
    /// Per-stage totals.
    pub times: Breakdown,
    /// Full execution trace (Fig. 5/8-style).
    pub trace: Trace,
    /// The partition used, for SPS/PPS.
    pub partition: Option<Partition>,
    /// The concrete mode that produced this outcome (`Mode::Auto` resolves
    /// to its selection).
    pub mode: Mode,
    /// True when a tolerant decode salvaged a truncated/corrupt entropy
    /// stream: rows past the damage are neutral gray.
    pub truncated: bool,
}

impl DecodeOutcome {
    /// End-to-end virtual time.
    pub fn total(&self) -> f64 {
        self.times.total
    }

    /// The RGB image, if RGB output was produced.
    pub fn rgb(&self) -> Option<&RgbImage> {
        if self.image.data.is_empty() {
            None
        } else {
            Some(&self.image)
        }
    }

    /// The planar YCbCr image, if planar output was requested.
    pub fn planar(&self) -> Option<&YccImage> {
        self.ycc.as_ref()
    }
}

/// Route one prepared image through a concrete mode. `Mode::Auto` must be
/// resolved first — the session does, through its decision cache. All
/// decode paths share the caller's pooled [`Workspace`].
pub(crate) fn dispatch(
    prep: &Prepared<'_>,
    mode: Mode,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    match mode {
        Mode::Sequential | Mode::Simd | Mode::ParallelEntropy => {
            let filled = cpu::fill(prep, platform, cpu::Fill::entropy(mode, threads), ws)?;
            let sink = cpu::Sink::Image(crate::session::OutputFormat::Rgb);
            Ok(cpu::render(prep, platform, filled, mode, sink, ws)?.0)
        }
        Mode::Gpu => single::decode_gpu_in(prep, platform, model, ws),
        Mode::PipelinedGpu => single::decode_pipelined_gpu_in(prep, platform, model, ws),
        Mode::Sps => hetero::decode_sps_in(prep, platform, model, ws),
        Mode::Pps => hetero::decode_pps_in(prep, platform, model, true, ws),
        Mode::Auto => unreachable!("dispatch takes a concrete mode; resolve Mode::Auto first"),
    }
}

/// Entropy-decode every MCU row into `coef`, returning the per-row work
/// metrics and the total Huffman time under the platform cost model. The
/// per-row metrics carry the EOB-class histograms the sparse-aware band
/// pricing consumes ([`crate::cost::CpuCostModel::parallel_time_sparse`]);
/// [`eob_classes_in`] sums them over a band.
pub(crate) fn entropy_into(
    prep: &Prepared<'_>,
    platform: &Platform,
    coef: &mut CoefBuffer,
) -> Result<(Vec<hetjpeg_jpeg::metrics::RowMetrics>, f64)> {
    let mut dec = prep.entropy_decoder()?;
    let mut rows = Vec::with_capacity(prep.geom.mcus_y);
    let mut total = 0.0;
    while !dec.is_finished() {
        let m = dec.decode_mcu_row(coef)?;
        total += platform.cpu.huff_time(&m);
        rows.push(m);
    }
    Ok((rows, total))
}

/// EOB-class histogram of MCU rows `[start, end)` — the sparse-pricing
/// input for a band of the parallel phase.
pub(crate) fn eob_classes_in(
    rows: &[hetjpeg_jpeg::metrics::RowMetrics],
    start: usize,
    end: usize,
) -> [u64; 4] {
    let mut classes = [0u64; 4];
    for m in &rows[start.min(rows.len())..end.min(rows.len())] {
        for (a, b) in classes.iter_mut().zip(m.eob_classes) {
            *a += b;
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_and_order() {
        let names: Vec<&str> = Mode::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "sequential",
                "SIMD",
                "GPU",
                "pipeline",
                "SPS",
                "PPS",
                "par-entropy"
            ]
        );
        // The selector is not a concrete mode.
        assert!(!Mode::all().contains(&Mode::Auto));
        assert_eq!(Mode::paper_six().len(), 6);
    }

    #[test]
    fn cpu_only_classification() {
        assert!(Mode::Sequential.is_cpu_only());
        assert!(Mode::Simd.is_cpu_only());
        assert!(Mode::ParallelEntropy.is_cpu_only());
        for m in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
            assert!(!m.is_cpu_only());
        }
    }
}
