//! The library workloads (`photo`, `progressive-preview`) and the per-layer
//! decode pass every traced run makes over its corpus.

use crate::corpus::{Image, Rng};
use crate::stats::{self, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, SLO};
use hetjpeg_core::{DecodeOptions, DecodeOutcome, Decoder, Mode, SessionStats, SimdLevel};
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::simd::{decode_region_rgb_simd_with, SimdScratch};
use hetjpeg_jpeg::decoder::{kernels, Prepared};
use hetjpeg_jpeg::progressive;
use hetjpeg_jpeg::types::Subsampling;
use std::hint::black_box;
use std::time::Instant;

/// Decodes per block over which the library workloads take their tail
/// latency (rounded up to whole passes).
const TAIL_BLOCK_DECODES: usize = 150;

/// One decode of the closed loop.
#[derive(Clone, Copy)]
pub struct Task {
    pub image: usize,
    /// Ask for a `max_scans = 1` DC-preview render.
    pub preview: bool,
}

impl Task {
    pub fn options(&self) -> DecodeOptions {
        if self.preview {
            DecodeOptions::default().max_scans(1)
        } else {
            DecodeOptions::default()
        }
    }

    pub fn expected<'a>(&self, corpus: &'a [Image]) -> &'a [u8] {
        let img = &corpus[self.image];
        match (&img.expected_preview, self.preview) {
            (Some(p), true) => p,
            _ => &img.expected,
        }
    }
}

/// One pass of the closed loop. `photo` decodes each image once; for
/// `progressive-preview` each image appears four times, one of them a
/// preview, so a fixed quarter of the decodes are previews.
pub fn tasks(corpus: &[Image], previews: bool, seed: u64) -> Vec<Task> {
    let mut out = Vec::new();
    for image in 0..corpus.len() {
        if previews {
            for k in 0..4 {
                out.push(Task {
                    image,
                    preview: k == 0,
                });
            }
        } else {
            out.push(Task {
                image,
                preview: false,
            });
        }
    }
    Rng::new(seed ^ 0x7a5c).shuffle(&mut out);
    out
}

fn check(out: &hetjpeg_jpeg::Result<DecodeOutcome>, expected: &[u8]) -> bool {
    matches!(out, Ok(o) if o.image.data == expected)
}

/// Build the default session and run the warm-up pass that fills its
/// pools and `Auto` cache.
fn set_up(corpus: &[Image], pass: &[Task]) -> Decoder {
    let decoder = Decoder::builder().build().expect("default session");
    for t in pass {
        let _ = black_box(decoder.decode(&corpus[t.image].jpeg, t.options()));
    }
    decoder
}

/// Untraced run: repeated set-up, then whole passes of the closed loop
/// until `seconds` have been measured.
pub fn run(corpus: &[Image], pass: &[Task], setups: usize, seconds: f64) -> Outcome {
    let mut setup_times = Vec::new();
    let mut decoder = None;
    for _ in 0..setups {
        drop(decoder.take());
        let t0 = Instant::now();
        decoder = Some(set_up(corpus, pass));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let decoder = decoder.expect("at least one set-up");

    let mut lat_ms = Vec::new();
    let (mut pass_rates, mut pass_ops) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut within) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (mut busy, mut px) = (0.0f64, 0usize);
        for t in pass {
            let img = &corpus[t.image];
            let t0 = Instant::now();
            let out = decoder.decode(&img.jpeg, t.options());
            let dt = t0.elapsed();
            attempted += 1;
            busy += dt.as_secs_f64();
            lat_ms.push(dt.as_secs_f64() * 1e3);
            if check(&out, t.expected(corpus)) {
                px += img.pixels();
                within += (dt <= SLO) as u64;
            } else {
                failed += 1;
            }
        }
        pass_rates.push(px as f64 / busy / 1e6);
        pass_ops.push(pass.len() as f64 / busy);
    }

    // Each image appears once per pass, so the samples come in clusters of
    // one per pass and the tail of all samples would jump between images as
    // the pass count changes. The tail is therefore taken over blocks of a
    // fixed number of passes, and the median over blocks is reported.
    let block = pass.len() * TAIL_BLOCK_DECODES.div_ceil(pass.len());
    let tails: Vec<(f64, f64)> = if lat_ms.len() >= block {
        lat_ms.chunks_exact(block).map(stats::tail).collect()
    } else {
        vec![stats::tail(&lat_ms)]
    };
    let tail = stats::median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    println!(
        "latency_tail_ms is the median over {} blocks of {} decodes of each block's p{:.2}; \
         slo limit {} ms",
        tails.len(),
        block.min(lat_ms.len()),
        tails[0].1,
        SLO.as_millis()
    );
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_times), "s");
    m.put("mpix_per_s", stats::median(&pass_rates), "Mpx/s");
    m.put("latency_p50_ms", stats::median(&lat_ms), "ms");
    m.put("latency_tail_ms", tail, "ms");
    m.put("slo_ratio", within as f64 / attempted as f64, "ratio");
    m.put("max_rps", stats::median(&pass_ops), "1/s");
    // Whole-frame decodes deliver their first pixels with the last.
    m.put("first_tile_p50_ms", stats::median(&lat_ms), "ms");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}

/// Traced run of a library workload: the tracing-overhead check, the
/// counted `Auto` pass, and the per-layer decode pass.
pub fn run_traced(corpus: &[Image], pass: &[Task], epoch: Instant) -> (Outcome, Tracer) {
    let mut tracer = Tracer::new(epoch);
    let decoder = set_up(corpus, pass);
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Tracing overhead: alternate untraced and traced passes of the loop.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let t0 = Instant::now();
        for t in pass {
            let out = decoder.decode(&corpus[t.image].jpeg, t.options());
            attempted += 1;
            failed += !check(&out, t.expected(corpus)) as u64;
        }
        plain.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for (i, t) in pass.iter().enumerate() {
            let out = tracer.span("request", i as u64, |tr| {
                tr.span("core.decode", i as u64, |_| {
                    decoder.decode(&corpus[t.image].jpeg, t.options())
                })
            });
            attempted += 1;
            failed += !check(&out, t.expected(corpus)) as u64;
        }
        traced.push(t0.elapsed().as_secs_f64());
    }

    let mut m = Metrics::default();
    let layers = layer_pass(&decoder, corpus, pass, &mut tracer, &mut m);
    attempted += layers.attempted;
    failed += layers.failed;
    m.put(
        "trace.overhead_ratio",
        stats::median(&traced) / stats::median(&plain),
        "ratio",
    );
    (
        Outcome {
            metrics: m,
            attempted,
            failed,
        },
        tracer,
    )
}

/// The serve-layer metrics of a traced run without a serve pass: no work,
/// so every count and time is 0.
pub fn serve_layers_idle(m: &mut Metrics) {
    for (name, unit) in [
        ("pool.submit_us", "us"),
        ("pool.wait_ms", "ms"),
        ("pool.mean_batch", "count"),
        ("pool.shed_ratio", "ratio"),
        ("pool.shed", "count"),
        ("frontend.overhead_ms", "ms"),
        ("frontend.rejected", "count"),
        ("frontend.closed_loop_ms", "ms"),
        ("frontend.closed_loop_quickack_ms", "ms"),
        ("protocol.write_us", "us"),
        ("stream.first_tile_ms", "ms"),
        ("stream.tile_peak", "count"),
        ("stream.streamed", "count"),
        ("loadgen.late_ms", "ms"),
    ] {
        m.put(name, 0.0, unit);
    }
}

fn mode_key(mode: Mode) -> &'static str {
    match mode {
        Mode::Sequential => "sequential",
        Mode::Simd => "simd",
        Mode::Gpu => "gpu",
        Mode::PipelinedGpu => "pipelined_gpu",
        Mode::Sps => "sps",
        Mode::Pps => "pps",
        Mode::ParallelEntropy => "parallel_entropy",
        Mode::Auto => "auto",
    }
}

fn is_gpu(mode: Mode) -> bool {
    matches!(mode, Mode::Gpu | Mode::PipelinedGpu | Mode::Sps | Mode::Pps)
}

pub struct LayerPass {
    pub attempted: u64,
    pub failed: u64,
}

/// Per-image wall times gathered by the layer pass, in nanoseconds.
#[derive(Default, Clone)]
struct ImageTimes {
    parse: f64,
    entropy: f64,
    render: f64,
    modes: Vec<(Mode, f64, f64)>,
}

/// The per-layer decode pass: counted `Auto` decodes on the workload's own
/// session (exact counter deltas), then each image through the stage entry
/// points and through every concrete mode on a second session.
pub fn layer_pass(
    decoder: &Decoder,
    corpus: &[Image],
    pass: &[Task],
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> LayerPass {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let level = decoder.simd_level();

    // Counted pass: one decode per task under the session's Auto.
    let before = decoder.stats();
    let mut shares = [0u64; 7];
    let mut residuals = Vec::new();
    let mut auto_pick = vec![None; corpus.len()];
    for (i, t) in pass.iter().enumerate() {
        let t0 = Instant::now();
        let out = decoder.decode(&corpus[t.image].jpeg, t.options());
        let wall = t0.elapsed().as_secs_f64();
        tracer.record("core.decode.auto", i as u64, t0, Instant::now(), None);
        attempted += 1;
        if !check(&out, t.expected(corpus)) {
            failed += 1;
        }
        if let Ok(o) = &out {
            let k = Mode::all().iter().position(|&x| x == o.mode).unwrap_or(0);
            shares[k] += 1;
            if o.times.total > 0.0 {
                residuals.push(wall / o.times.total);
            }
            if !t.preview {
                auto_pick[t.image] = Some(o.mode);
            }
        }
    }
    let after = decoder.stats();
    let pool = delta_pool(&before, &after);
    let hits = pool.auto_cache_hits as f64;
    let lookups = hits + pool.auto_evals as f64;
    let reuses = (pool.coef_reuses + pool.scratch_reuses) as f64;
    let allocs = (pool.coef_allocs + pool.scratch_allocs) as f64;

    // Stage entry points and every concrete mode, per image.
    let modes = Decoder::builder().build().expect("all-modes session");
    let mut times = vec![ImageTimes::default(); corpus.len()];
    let (mut blocks, mut px_total) = (0usize, 0usize);
    let (mut prog_full, mut prog_prefix) = (0.0f64, 0.0f64);
    let mut progressive_px = 0usize;
    let (mut h2d_bytes, mut gpu_px) = (0u64, 0usize);
    let mut spec = hetjpeg_jpeg::speculate::SpecStats::default();
    let mut predict_us = Vec::new();
    let mut stages = Stages::default();
    if let Some(largest) = corpus.iter().max_by_key(|img| img.pixels()) {
        // Size the pooled buffers once, outside any recorded span.
        stages.run(&mut Tracer::new(Instant::now()), 0, largest, level);
    }
    for (i, img) in corpus.iter().enumerate() {
        let req = i as u64;
        let it = &mut times[i];
        px_total += img.pixels();
        tracer.span("image", req, |tr| {
            let st = stages.run(tr, req, img, level);
            failed += !st.rendered_ok as u64;
            it.parse = st.parse;
            it.entropy = st.entropy;
            it.render = st.render;
            blocks += st.blocks;
            if let Some(prefix) = st.prefix {
                prog_prefix += prefix;
                prog_full += st.entropy;
                progressive_px += img.pixels();
            } else {
                let t0 = Instant::now();
                let _ = black_box(tr.span("auto.predict", req, |_| decoder.predict(&img.jpeg)));
                predict_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            for mode in Mode::all() {
                let s0 = modes.stats();
                let t0 = Instant::now();
                let out = tr.span(span_name(mode), req, |_| {
                    modes.decode(&img.jpeg, DecodeOptions::with_mode(mode))
                });
                let wall = t0.elapsed().as_secs_f64() * 1e9;
                let s1 = modes.stats();
                attempted += 1;
                if !check(&out, &img.expected) {
                    failed += 1;
                }
                let virt = out.as_ref().map_or(0.0, |o| o.times.total * 1e9);
                it.modes.push((mode, wall, virt));
                if is_gpu(mode) {
                    h2d_bytes += s1.pool.h2d_bytes - s0.pool.h2d_bytes;
                    gpu_px += img.pixels();
                }
                if mode == Mode::ParallelEntropy {
                    spec.merge(&delta_spec(&s0, &s1));
                }
            }
        });
    }

    // Attribution.
    let px = px_total as f64;
    let mode_wall = |it: &ImageTimes, mode: Mode| {
        it.modes
            .iter()
            .find(|(m, _, _)| *m == mode)
            .map_or(0.0, |x| x.1)
    };
    let st = tracer.self_times();
    let self_ns = |name: &str| *st.get(name).unwrap_or(&0) as f64;
    m.put(
        "markers.parse_us",
        stats::median(&times.iter().map(|t| t.parse / 1e3).collect::<Vec<_>>()),
        "us",
    );
    m.put("entropy.ns_per_px", self_ns("entropy") / px, "ns/px");
    let decoded = (spec.adopted_mcus + spec.wasted_mcus + spec.redecoded_mcus) as f64;
    m.put(
        "speculate.useful_ratio",
        if decoded > 0.0 {
            1.0 - (spec.wasted_mcus + spec.redecoded_mcus) as f64 / decoded
        } else {
            1.0
        },
        "ratio",
    );
    m.put("speculate.chunks", spec.chunks as f64, "count");
    m.put("speculate.wasted_mcus", spec.wasted_mcus as f64, "count");
    let pp = progressive_px.max(1) as f64;
    m.put("progressive.ns_per_px", prog_full / pp, "ns/px");
    m.put("progressive.prefix_ns_per_px", prog_prefix / pp, "ns/px");
    m.put("render.ns_per_px", self_ns("render") / px, "ns/px");
    m.put(
        "idct.ns_per_block",
        self_ns("idct") / blocks.max(1) as f64,
        "ns/block",
    );
    m.put("upsample.ns_per_px", self_ns("upsample") / px, "ns/px");
    m.put("color.ns_per_px", self_ns("color") / px, "ns/px");

    let gpu_self: f64 = times
        .iter()
        .flat_map(|it| {
            it.modes
                .iter()
                .filter(|(m, _, _)| is_gpu(*m))
                .map(move |(_, w, _)| w - it.entropy)
        })
        .sum();
    let gpu_virtual: f64 = times
        .iter()
        .flat_map(|it| it.modes.iter().filter(|(m, _, _)| is_gpu(*m)).map(|x| x.2))
        .sum();
    let gpu_px = gpu_px.max(1) as f64;
    m.put("gpu_sim.ns_per_px", gpu_self / gpu_px, "ns/px");
    m.put("gpu_sim.virtual_ns_per_px", gpu_virtual / gpu_px, "ns/px");
    m.put(
        "gpu_sim.h2d_bytes_per_px",
        h2d_bytes as f64 / gpu_px,
        "B/px",
    );
    m.put("gpu_sim.h2d_bytes", h2d_bytes as f64, "B");

    // Regret of Auto's pick against the best concrete mode, per image,
    // and how much of the gap the simulated-GPU self time covers.
    let (mut regret, mut gap, mut pick_gpu_self) = (Vec::new(), 0.0f64, 0.0f64);
    for (it, pick) in times.iter().zip(&auto_pick) {
        let Some(pick) = *pick else { continue };
        let best = it.modes.iter().map(|x| x.1).fold(f64::INFINITY, f64::min);
        let wall = mode_wall(it, pick);
        regret.push(wall / best);
        gap += wall - best;
        if is_gpu(pick) {
            pick_gpu_self += wall - it.entropy;
        }
    }
    m.put("auto.regret_median", stats::median(&regret), "ratio");
    m.put("auto.regret_max", stats::max(&regret), "ratio");
    m.put("auto.gap_ms", gap / 1e6, "ms");
    m.put("gpu_sim.pick_self_ms", pick_gpu_self / 1e6, "ms");
    m.put("auto.residual", stats::median(&residuals), "ratio");
    for mode in Mode::all() {
        let r: Vec<f64> = times
            .iter()
            .flat_map(|it| it.modes.iter().filter(|x| x.0 == mode && x.2 > 0.0))
            .map(|x| x.1 / x.2)
            .collect();
        m.put(
            format!("auto.residual.{}", mode_key(mode)),
            stats::median(&r),
            "ratio",
        );
    }
    m.put("auto.predict_us", stats::median(&predict_us), "us");
    m.put(
        "auto.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    m.put("auto.cache_hits", hits, "count");
    for (k, mode) in Mode::all().iter().enumerate() {
        m.put(
            format!("auto.mode_share.{}", mode_key(*mode)),
            shares[k] as f64,
            "count",
        );
    }
    let overhead: Vec<f64> = times
        .iter()
        .map(|it| (mode_wall(it, Mode::Simd) - it.parse - it.entropy - it.render) / 1e3)
        .collect();
    m.put("session.overhead_us", stats::median(&overhead), "us");
    m.put(
        "session.pool_reuse_ratio",
        if reuses + allocs > 0.0 {
            reuses / (reuses + allocs)
        } else {
            0.0
        },
        "ratio",
    );
    println!(
        "layer pass: {} images, {:.1} Mpx; Auto gap over best mode {:.1} ms, \
         simulated-GPU self time in Auto's GPU picks {:.1} ms",
        corpus.len(),
        px / 1e6,
        gap / 1e6,
        pick_gpu_self / 1e6
    );
    LayerPass { attempted, failed }
}

fn span_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Sequential => "core.decode.sequential",
        Mode::Simd => "core.decode.simd",
        Mode::Gpu => "core.decode.gpu",
        Mode::PipelinedGpu => "core.decode.pipelined_gpu",
        Mode::Sps => "core.decode.sps",
        Mode::Pps => "core.decode.pps",
        Mode::ParallelEntropy => "core.decode.parallel_entropy",
        Mode::Auto => "core.decode.auto",
    }
}

fn delta_pool(a: &SessionStats, b: &SessionStats) -> hetjpeg_core::PoolStats {
    let (a, b) = (a.pool, b.pool);
    hetjpeg_core::PoolStats {
        coef_allocs: b.coef_allocs - a.coef_allocs,
        coef_reuses: b.coef_reuses - a.coef_reuses,
        scratch_allocs: b.scratch_allocs - a.scratch_allocs,
        scratch_reuses: b.scratch_reuses - a.scratch_reuses,
        auto_evals: b.auto_evals - a.auto_evals,
        auto_cache_hits: b.auto_cache_hits - a.auto_cache_hits,
        auto_evictions: b.auto_evictions - a.auto_evictions,
        h2d_transfers: b.h2d_transfers - a.h2d_transfers,
        h2d_bytes: b.h2d_bytes - a.h2d_bytes,
    }
}

fn delta_spec(a: &SessionStats, b: &SessionStats) -> hetjpeg_jpeg::speculate::SpecStats {
    let (a, b) = (a.spec, b.spec);
    hetjpeg_jpeg::speculate::SpecStats {
        chunks: b.chunks - a.chunks,
        synced: b.synced - a.synced,
        adopted_mcus: b.adopted_mcus - a.adopted_mcus,
        wasted_mcus: b.wasted_mcus - a.wasted_mcus,
        redecoded_mcus: b.redecoded_mcus - a.redecoded_mcus,
    }
}

/// Per-image results of [`Stages::run`], in nanoseconds.
struct StageTimes {
    parse: f64,
    /// Entropy decode: the baseline entropy decoder, or every scan of a
    /// progressive script.
    entropy: f64,
    /// The one-scan (DC) prefix of a progressive script.
    prefix: Option<f64>,
    render: f64,
    blocks: usize,
    /// The fused render matched the reference.
    rendered_ok: bool,
}

/// Buffers the stage pass reuses across images, as a session pools its
/// own, so stage spans do not pay first-touch page faults.
#[derive(Default)]
struct Stages {
    coef: Option<CoefBuffer>,
    out: Vec<u8>,
    planes: [Vec<u8>; 3],
    full: [Vec<u8>; 2],
    vtmp: Vec<u8>,
}

impl Stages {
    /// Decode one image through the stage entry points, one span each:
    /// marker parse, entropy (or progressive scans), the fused render, and
    /// the render's work split into the kernel families.
    fn run(&mut self, tr: &mut Tracer, req: u64, img: &Image, level: SimdLevel) -> StageTimes {
        let ns = |tr: &Tracer, name| tr.last_ns(name, req).unwrap_or(0) as f64;
        let (prep, prefix) = if progressive::is_progressive(&img.jpeg) {
            let parsed = tr
                .span("markers.parse", req, |_| {
                    progressive::parse_progressive(&img.jpeg)
                })
                .expect("parse");
            let prep = Prepared::from_progressive(&parsed).expect("prepare");
            let coef = self.coef.get_or_insert_with(|| CoefBuffer::new(&prep.geom));
            coef.reset_for(&prep.geom);
            tr.span("progressive.prefix", req, |_| {
                progressive::decode_scans(&parsed, &prep.geom, coef, Some(1), false)
            })
            .expect("prefix scans");
            coef.reset_for(&prep.geom);
            tr.span("progressive.decode_scans", req, |_| {
                progressive::decode_scans(&parsed, &prep.geom, coef, None, false)
            })
            .expect("scans");
            (prep, Some(ns(tr, "progressive.prefix")))
        } else {
            let prep = tr
                .span("markers.parse", req, |_| Prepared::new(&img.jpeg))
                .expect("parse");
            let coef = self.coef.get_or_insert_with(|| CoefBuffer::new(&prep.geom));
            coef.reset_for_entropy(&prep.geom);
            tr.span("entropy", req, |_| {
                prep.entropy_decoder()
                    .and_then(|mut d| d.decode_remaining(coef))
            })
            .expect("entropy");
            (prep, None)
        };
        let entropy = if prefix.is_some() {
            ns(tr, "progressive.decode_scans")
        } else {
            ns(tr, "entropy")
        };
        let coef = self.coef.take().expect("decoded above");
        let rendered_ok = self.render(tr, req, &prep, &coef, level, img);
        self.coef = Some(coef);
        StageTimes {
            parse: ns(tr, "markers.parse"),
            entropy,
            prefix,
            render: ns(tr, "render"),
            blocks: prep.geom.total_blocks,
            rendered_ok,
        }
    }

    /// Time the fused render entry point, then the same work split into
    /// the kernel families (IDCT per block, chroma upsampling per row,
    /// colour conversion per row). Returns whether the fused render
    /// matched the reference.
    fn render(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        prep: &Prepared<'_>,
        coef: &CoefBuffer,
        level: SimdLevel,
        img: &Image,
    ) -> bool {
        let geom = &prep.geom;
        let w = geom.width;
        let out = &mut self.out;
        out.resize(w * geom.height * 3, 0);
        let mut scratch = SimdScratch::with_level(prep, level);
        tr.span("render", req, |_| {
            decode_region_rgb_simd_with(prep, coef, 0, geom.mcus_y, out, &mut scratch)
        })
        .expect("render");
        let ok = *out == img.expected;

        let bufs = &mut self.planes;
        for (buf, comp) in bufs.iter_mut().zip(&geom.comps) {
            buf.resize(comp.plane_width() * comp.plane_height(), 0);
        }
        tr.span("idct", req, |_| {
            for (ci, comp) in geom.comps.iter().enumerate() {
                let pw = comp.plane_width();
                let quant = &prep.quant[ci].values;
                for by in 0..comp.height_blocks {
                    for bx in 0..comp.width_blocks {
                        let idx = geom.block_index(ci, bx, by);
                        kernels::dequant_idct_block(
                            level,
                            coef.block(idx),
                            quant,
                            coef.eob(idx),
                            &mut bufs[ci],
                            by * 8 * pw + bx * 8,
                            pw,
                        );
                    }
                }
            }
        });

        let lw = geom.comps[0].plane_width();
        let (cw, ch) = (geom.comps[1].plane_width(), geom.comps[1].plane_height());
        let full = &mut self.full;
        for f in full.iter_mut() {
            f.resize(lw * geom.height, 0);
        }
        let vtmp = &mut self.vtmp;
        vtmp.resize(cw, 0);
        tr.span("upsample", req, |_| {
            for (c, dst) in full.iter_mut().enumerate() {
                let plane = &bufs[c + 1];
                for y in 0..geom.height {
                    let row = &mut dst[y * lw..(y + 1) * lw];
                    match geom.subsampling {
                        Subsampling::S444 => row.copy_from_slice(&plane[y * cw..(y + 1) * cw]),
                        Subsampling::S422 => {
                            kernels::upsample_row_h2v1(level, &plane[y * cw..(y + 1) * cw], row)
                        }
                        Subsampling::S420 => {
                            let cy = (y / 2).min(ch - 1);
                            let far = if y % 2 == 0 {
                                cy.saturating_sub(1)
                            } else {
                                (cy + 1).min(ch - 1)
                            };
                            kernels::blend_v2_row(
                                level,
                                &plane[cy * cw..(cy + 1) * cw],
                                &plane[far * cw..(far + 1) * cw],
                                vtmp,
                            );
                            kernels::upsample_row_h2v1(level, vtmp, row);
                        }
                    }
                }
            }
        });

        tr.span("color", req, |_| {
            for y in 0..geom.height {
                kernels::convert_row(
                    level,
                    &prep.ycc,
                    &bufs[0][y * lw..(y + 1) * lw],
                    &full[0][y * lw..(y + 1) * lw],
                    &full[1][y * lw..(y + 1) * lw],
                    &mut out[y * w * 3..(y + 1) * w * 3],
                );
            }
        });
        black_box(&out);
        ok
    }
}
