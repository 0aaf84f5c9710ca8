//! The CPU pipeline: *fill* the pooled coefficient buffer, then *render*
//! it through the fused row-tile kernels into a sink.
//!
//! `Mode::Sequential`, `Mode::Simd` and `Mode::ParallelEntropy` are exactly
//! fill + render. The session routes everything else that renders on the
//! CPU through the same two steps: progressive sources, planar output, row
//! streaming and tolerant salvage. The GPU-involving modes overlap entropy
//! with device work and keep their own schedules ([`super::dispatch`]).

use super::entropy_par::schedule_entropy;
use super::{entropy_into, eob_classes_in, DecodeOutcome, Mode};
use crate::exec::decode_entropy_parallel_into;
use crate::platform::Platform;
use crate::session::OutputFormat;
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::Workspace;
use hetjpeg_jpeg::decoder::{simd, stages, Prepared};
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::metrics::RowMetrics;
use hetjpeg_jpeg::progressive::{self, ProgressiveParsed};
use hetjpeg_jpeg::types::{RgbImage, YccImage};

/// How [`fill`] puts coefficients into the pooled buffer.
pub(crate) enum Fill<'p, 'a> {
    /// One sequential entropy pass.
    Sequential,
    /// Restart-segment or speculative chunk workers on this many threads.
    Parallel(usize),
    /// A progressive scan script, or its `max_scans` prefix.
    Progressive {
        parsed: &'p ProgressiveParsed<'a>,
        max_scans: Option<usize>,
        tolerant: bool,
    },
    /// Tolerant salvage: decode row by row as far as the stream allows and
    /// leave the damaged tail as zero coefficients (neutral gray).
    Salvage,
}

impl Fill<'_, '_> {
    /// The entropy fill of a baseline scan for a CPU mode.
    pub(crate) fn entropy(mode: Mode, threads: usize) -> Self {
        if mode == Mode::ParallelEntropy {
            Fill::Parallel(threads)
        } else {
            Fill::Sequential
        }
    }
}

/// What a fill hands to [`render`].
pub(crate) struct Filled {
    /// Virtual Huffman time.
    pub t_huff: f64,
    /// EOB-class histogram of the written blocks (sparse band pricing).
    pub classes: [u64; 4],
    /// The entropy spans; render appends its band.
    pub trace: Trace,
    /// The coefficients are a salvage or scan-prefix approximation.
    pub truncated: bool,
}

/// Where [`render`] puts the pixels.
pub(crate) enum Sink<'s> {
    /// A whole image in the given format.
    Image(OutputFormat),
    /// The caller's tile closure: `(first pixel row, rows, rgb)`, returning
    /// `false` to stop after the current tile.
    Tiles(&'s mut dyn FnMut(usize, usize, &[u8]) -> bool),
}

/// Fill the workspace's coefficient buffer for `prep`. Salvage runs after a
/// failed attempt that already counted this decode, so it zeroes the
/// buffer without bumping the pool counters.
pub(crate) fn fill(
    prep: &Prepared<'_>,
    platform: &Platform,
    how: Fill<'_, '_>,
    ws: &mut Workspace,
) -> Result<Filled> {
    match how {
        Fill::Salvage => ws.ensure_zeroed(prep),
        _ => ws.ensure(prep),
    }
    let geom = &prep.geom;
    let parallel = matches!(how, Fill::Parallel(_));
    let mut trace = Trace::default();
    let (t_huff, classes, truncated) = match how {
        Fill::Sequential => {
            let (rows, t) = entropy_into(prep, platform, ws.parts().coef)?;
            (t, eob_classes_in(&rows, 0, rows.len()), false)
        }
        Fill::Parallel(threads) => {
            let out = decode_entropy_parallel_into(prep, threads, ws.parts().coef)?;
            ws.spec.merge(&out.spec);
            let (t, classes) = schedule_entropy(platform, &out, threads, &mut trace);
            (t, classes, false)
        }
        Fill::Progressive {
            parsed,
            max_scans,
            tolerant,
        } => {
            // Scans accumulate into prior state and a prefix leaves later
            // bands untouched: the buffer starts zeroed.
            let coef = ws.parts().coef;
            coef.reset_for(geom);
            let out = progressive::decode_scans(parsed, geom, coef, max_scans, tolerant)?;
            let partial = out.truncated || max_scans.is_some_and(|m| m < parsed.scans.len());
            ws.progressive.scans_decoded += out.scans_decoded as u64;
            ws.progressive.refine_passes += out.refine_passes;
            ws.progressive.partial_renders += u64::from(partial);
            let mut total = RowMetrics::default();
            for r in &out.rows {
                total.add(r);
            }
            let t = platform.cpu.progressive_huff_time(&total, out.block_visits);
            (t, eob_classes_in(&out.rows, 0, out.rows.len()), partial)
        }
        Fill::Salvage => {
            let coef = ws.parts().coef;
            let mut dec = prep.entropy_decoder()?;
            let (mut t, mut classes, mut rows_ok) = (0.0, [0u64; 4], 0usize);
            while !dec.is_finished() {
                let Ok(m) = dec.decode_mcu_row(coef) else {
                    break;
                };
                t += platform.cpu.huff_time(&m);
                rows_ok += 1;
                for (a, b) in classes.iter_mut().zip(m.eob_classes) {
                    *a += b;
                }
            }
            // The damaged tail rows are absent from the histogram and
            // price as dense — conservative for a neutral-gray region.
            (t, classes, rows_ok < geom.mcus_y)
        }
    };
    // The parallel schedule pushed its per-worker spans already.
    if !parallel {
        trace.push("huffman", Resource::Cpu, 0.0, t_huff);
    }
    Ok(Filled {
        t_huff,
        classes,
        trace,
        truncated,
    })
}

/// Render the filled buffer into `sink` and build the CPU-mode outcome,
/// reporting `mode`. This is the one place the render path is chosen:
/// `Mode::Sequential` renders on the scalar kernels, every other mode on
/// the workspace's SIMD dispatch (the bytes are identical either way).
/// Returns `false` beside the outcome when a tile sink stopped the stream;
/// a tile-streamed outcome carries no pixels.
pub(crate) fn render(
    prep: &Prepared<'_>,
    platform: &Platform,
    filled: Filled,
    mode: Mode,
    sink: Sink<'_>,
    ws: &mut Workspace,
) -> Result<(DecodeOutcome, bool)> {
    let use_simd = mode != Mode::Sequential;
    let geom = &prep.geom;
    let (rows, classes) = (geom.mcus_y, &filled.classes);
    let p = ws.parts();
    let mut image = RgbImage {
        width: geom.width,
        height: geom.height,
        data: Vec::new(),
    };
    let mut ycc = None;
    let mut completed = true;
    let t_band = match sink {
        Sink::Image(OutputFormat::Rgb) => {
            image.data = vec![0; geom.width * geom.height * 3];
            let work = if use_simd {
                simd::decode_region_rgb_simd_with(prep, p.coef, 0, rows, &mut image.data, p.simd)?
            } else {
                stages::decode_region_rgb_with(prep, p.coef, 0, rows, &mut image.data, p.scalar)?
            };
            platform.cpu.parallel_time_sparse(&work, classes, use_simd)
        }
        Sink::Image(OutputFormat::PlanarYcc) => {
            let mut planes = YccImage::new(geom.width, geom.height);
            let work = if use_simd {
                simd::decode_region_ycc_simd_with(prep, p.coef, 0, rows, &mut planes, p.simd)?
            } else {
                stages::decode_region_ycc_with(prep, p.coef, 0, rows, &mut planes, p.scalar)?
            };
            ycc = Some(planes);
            platform
                .cpu
                .parallel_time_planar_sparse(&work, classes, use_simd)
        }
        Sink::Tiles(sink) => {
            let mut tile = Vec::new();
            let (work, done) = if use_simd {
                simd::stream_region_rgb_simd_with(prep, p.coef, 0, rows, &mut tile, p.simd, sink)?
            } else {
                stages::stream_region_rgb_with(prep, p.coef, 0, rows, &mut tile, p.scalar, sink)?
            };
            completed = done;
            platform.cpu.parallel_time_sparse(&work, classes, use_simd)
        }
    };
    let Filled {
        t_huff,
        mut trace,
        truncated,
        ..
    } = filled;
    let band = if use_simd { "cpu-simd" } else { "cpu-scalar" };
    trace.push(band, Resource::Cpu, t_huff, t_huff + t_band);
    let outcome = DecodeOutcome {
        image,
        ycc,
        times: Breakdown {
            huffman: t_huff,
            cpu_parallel: t_band,
            total: t_huff + t_band,
            ..Default::default()
        },
        trace,
        partition: None,
        mode,
        truncated,
    };
    Ok((outcome, completed))
}
