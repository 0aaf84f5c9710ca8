//! Single-device GPU decode modes: whole-image GPU, pipelined GPU, and the
//! batched whole-image GPU staging. The CPU modes are the fill + render
//! pipeline in [`super::cpu`].
//!
//! The `*_in` functions draw every band- and chunk-sized temporary from
//! the caller's pooled [`Workspace`], so a session decoding many images
//! allocates the big buffers once.

use super::{entropy_into, DecodeOutcome, Mode};
use crate::gpu_decode::{decode_region_gpu_with, KernelPlan};
use crate::model::PerformanceModel;
use crate::platform::Platform;
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::Workspace;
use hetjpeg_gpusim::CommandQueue;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::types::RgbImage;

/// GPU mode (Fig. 5a) on pooled scratch: whole-image Huffman on the CPU,
/// then the full parallel phase as one transfer + kernel sequence on the
/// GPU — a batch of one that pays its own solo transfer.
pub(crate) fn decode_gpu_in(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let m = decode_gpu_batch_stage(prep, platform, model, ws)?;
    ws.stats.h2d_transfers += 1;
    let h2d_time = m.h2d_time;
    Ok(finish_gpu_batch_member(m, h2d_time))
}

/// One image's share of a batched GPU decode: everything but the
/// H2D pricing, which the batch owner settles once the whole batch's
/// compacted payload sizes are known.
pub(crate) struct GpuBatchMember {
    image: RgbImage,
    t_huff: f64,
    t_disp: f64,
    kernel_times: Vec<(&'static str, f64)>,
    d2h_time: f64,
    /// The image's H2D time as a transfer of its own.
    h2d_time: f64,
    /// Bytes this image contributes to the coalesced transfer.
    pub(crate) h2d_bytes: usize,
}

/// Stage one image of a batched whole-image GPU decode: entropy on the
/// CPU, kernels on the simulated GPU, compacted payload measured — but no
/// per-image H2D time. The caller prices ONE coalesced PCIe transfer over
/// all members ([`hetjpeg_gpusim::PcieModel::batched_transfer_time`]) and
/// finalizes each member with its byte-proportional share. Bumps the pool's
/// `h2d_bytes` (the payload still crosses the bus); the caller counts the
/// single batched transfer.
pub(crate) fn decode_gpu_batch_stage(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<GpuBatchMember> {
    let geom = &prep.geom;
    ws.ensure(prep);
    let p = ws.parts();
    let (_rows, t_huff) = entropy_into(prep, platform, p.coef)?;
    let t_disp = platform.cpu.dispatch_time(geom, 0, geom.mcus_y);
    let res = decode_region_gpu_with(
        prep,
        p.coef,
        0,
        geom.mcus_y,
        platform,
        model.wg_blocks,
        KernelPlan::Merged,
        p.staging,
    );
    p.stats.h2d_bytes += res.h2d_bytes as u64;
    Ok(GpuBatchMember {
        image: RgbImage {
            width: geom.width,
            height: geom.height,
            data: res.rgb,
        },
        t_huff,
        t_disp,
        kernel_times: res.kernel_times,
        d2h_time: res.d2h_time,
        h2d_time: res.h2d_time,
        h2d_bytes: res.h2d_bytes,
    })
}

/// Finalize a batch member once the coalesced transfer is priced:
/// `h2d_share` is this image's byte-proportional slice of the batch's
/// single H2D time (a solo decode passes its own transfer time).
pub(crate) fn finish_gpu_batch_member(m: GpuBatchMember, h2d_share: f64) -> DecodeOutcome {
    let mut trace = Trace::default();
    trace.push("huffman", Resource::Cpu, 0.0, m.t_huff);
    trace.push("dispatch", Resource::Cpu, m.t_huff, m.t_huff + m.t_disp);
    let mut q = CommandQueue::new();
    let h2d = q.enqueue("h2d", m.t_huff + m.t_disp, h2d_share);
    trace.push("h2d", Resource::Gpu, h2d.start, h2d.end);
    let mut kernels_total = 0.0;
    for &(name, t) in &m.kernel_times {
        let ev = q.enqueue(name, h2d.end, t);
        trace.push("kernel", Resource::Gpu, ev.start, ev.end);
        kernels_total += t;
    }
    let d2h = q.enqueue("d2h", q.drain_time(), m.d2h_time);
    trace.push("d2h", Resource::Gpu, d2h.start, d2h.end);
    DecodeOutcome {
        image: m.image,
        ycc: None,
        times: Breakdown {
            huffman: m.t_huff,
            dispatch: m.t_disp,
            h2d: h2d_share,
            kernels: kernels_total,
            d2h: m.d2h_time,
            total: q.drain_time(),
            ..Default::default()
        },
        trace,
        partition: None,
        mode: Mode::Gpu,
        truncated: false,
    }
}

/// Pipelined GPU mode (Fig. 5b, §4.5) on pooled scratch: the image is
/// sliced into chunks; each chunk's entropy data is shipped to the GPU as
/// soon as it is decoded, overlapping Huffman with kernels.
pub(crate) fn decode_pipelined_gpu_in(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let chunk = model.chunk_mcu_rows.max(1);
    ws.ensure(prep);
    let p = ws.parts();

    let mut dec = prep.entropy_decoder()?;
    let mut trace = Trace::default();
    let mut q = CommandQueue::new();
    let mut image = RgbImage::new(geom.width, geom.height);

    let mut cpu_now = 0.0;
    let mut b = Breakdown::default();
    let mut row = 0usize;
    while row < geom.mcus_y {
        let end = (row + chunk).min(geom.mcus_y);
        // Huffman for this chunk (sequential, on the CPU).
        let huff_start = cpu_now;
        for _ in row..end {
            let m = dec.decode_mcu_row(p.coef)?;
            cpu_now += platform.cpu.huff_time(&m);
        }
        b.huffman += cpu_now - huff_start;
        trace.push("huffman", Resource::Cpu, huff_start, cpu_now);

        // Asynchronous dispatch; the CPU resumes immediately after.
        let t_disp = platform.cpu.dispatch_time(geom, row, end);
        trace.push("dispatch", Resource::Cpu, cpu_now, cpu_now + t_disp);
        cpu_now += t_disp;
        b.dispatch += t_disp;

        let res = decode_region_gpu_with(
            prep,
            p.coef,
            row,
            end,
            platform,
            model.wg_blocks,
            KernelPlan::Merged,
            p.staging,
        );
        p.stats.h2d_transfers += 1;
        p.stats.h2d_bytes += res.h2d_bytes as u64;
        let h2d = q.enqueue("h2d", cpu_now, res.h2d_time);
        trace.push("h2d", Resource::Gpu, h2d.start, h2d.end);
        b.h2d += res.h2d_time;
        for &(_, t) in &res.kernel_times {
            let ev = q.enqueue("kernel", q.drain_time(), t);
            trace.push("kernel", Resource::Gpu, ev.start, ev.end);
            b.kernels += t;
        }
        let d2h = q.enqueue("d2h", q.drain_time(), res.d2h_time);
        trace.push("d2h", Resource::Gpu, d2h.start, d2h.end);
        b.d2h += res.d2h_time;

        // Functional output assembly.
        let (p0, p1) = geom.mcu_rows_to_pixel_rows(row, end);
        image.data[p0 * geom.width * 3..p1 * geom.width * 3].copy_from_slice(&res.rgb);
        row = end;
    }

    b.total = cpu_now.max(q.drain_time());
    Ok(DecodeOutcome {
        image,
        ycc: None,
        times: b,
        trace,
        partition: None,
        mode: Mode::PipelinedGpu,
        truncated: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{DecodeOptions, Decoder};
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn jpeg_of(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for i in 0..w * h {
            rgb.extend_from_slice(&[(i % 256) as u8, (i / 3 % 256) as u8, (i * 5 % 256) as u8]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 84,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    fn decode_with(jpeg: &[u8], platform: Platform, mode: Mode) -> DecodeOutcome {
        let decoder = Decoder::builder().platform(platform).build().unwrap();
        decoder
            .decode(jpeg, DecodeOptions::with_mode(mode))
            .unwrap()
    }

    #[test]
    fn simd_is_faster_than_sequential() {
        let jpeg = jpeg_of(256, 256);
        let seq = decode_with(&jpeg, Platform::gtx560(), Mode::Sequential);
        let simd = decode_with(&jpeg, Platform::gtx560(), Mode::Simd);
        assert_eq!(seq.image.data, simd.image.data);
        let speedup = seq.total() / simd.total();
        // §1: "twice as fast" overall.
        assert!((1.4..2.9).contains(&speedup), "SIMD speedup {speedup:.2}");
    }

    #[test]
    fn gpu_outcome_matches_cpu_bytes() {
        let jpeg = jpeg_of(128, 128);
        let cpu = decode_with(&jpeg, Platform::gtx680(), Mode::Simd);
        let gpu = decode_with(&jpeg, Platform::gtx680(), Mode::Gpu);
        assert_eq!(cpu.image.data, gpu.image.data);
        // GPU breakdown contains transfers and kernels.
        assert!(gpu.times.h2d > 0.0 && gpu.times.kernels > 0.0 && gpu.times.d2h > 0.0);
        assert!(gpu.times.total >= gpu.times.huffman);
    }

    #[test]
    fn pipelining_beats_plain_gpu_mode() {
        // §6.2: "The pipelined execution is always faster than a single
        // large GPU kernel invocation" (for multi-chunk images).
        let jpeg = jpeg_of(256, 512);
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let gpu = decode_gpu_in(&prep, &platform, &model, &mut ws).unwrap();
        let pipe = decode_pipelined_gpu_in(&prep, &platform, &model, &mut ws).unwrap();
        assert_eq!(gpu.image.data, pipe.image.data);
        assert!(
            pipe.total() < gpu.total(),
            "pipeline {:.4}ms vs gpu {:.4}ms",
            pipe.total() * 1e3,
            gpu.total() * 1e3
        );
    }

    #[test]
    fn single_chunk_image_degenerates_to_gpu_mode() {
        // "When the decoded image has a size smaller than the pre-determined
        // chunk size, the image is executed as one GPU kernel invocation."
        let jpeg = jpeg_of(64, 32); // 4 MCU rows < default chunk of 16
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let gpu = decode_gpu_in(&prep, &platform, &model, &mut ws).unwrap();
        let pipe = decode_pipelined_gpu_in(&prep, &platform, &model, &mut ws).unwrap();
        let diff = (pipe.total() - gpu.total()).abs();
        assert!(diff / gpu.total() < 0.05, "should be nearly identical");
    }

    #[test]
    fn traces_have_consistent_makespan() {
        let jpeg = jpeg_of(128, 256);
        for mode in [Mode::Simd, Mode::Gpu, Mode::PipelinedGpu] {
            let out = decode_with(&jpeg, Platform::gt430(), mode);
            assert!(
                (out.trace.makespan() - out.times.total).abs() < 1e-9,
                "{:?}: trace {} vs total {}",
                out.mode,
                out.trace.makespan(),
                out.times.total
            );
        }
    }
}
